import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindmimo import (
    FrameMeta,
    TransmitFrame,
    build_constellation,
    demodulate,
    build_frame,
    concentration_statistic,
    header_length,
    random_stiefel,
    snr_to_noise_variance,
    synthesize_received,
)


class TestConstellation:
    def test_qpsk_points(self):
        c = build_constellation("qpsk")
        assert c.size == 4 and c.bits_per_symbol == 2
        assert np.abs(np.abs(c.points) - 1.0).max() < 1e-12
        assert abs(c.points.sum()) < 1e-12
        assert c.s_infinity == pytest.approx(1.0)
        assert c.points[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_qam16_unit_power_by_direct_sum(self):
        c = build_constellation("qam16")
        # Independent oracle: all 16 grid points on {-3,-1,1,3}^2 / sqrt(10).
        grid = np.array([a + 1j * b for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)]) / np.sqrt(10)
        assert sorted(np.round(c.points, 12).tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            np.round(grid, 12).tolist(), key=lambda z: (z.real, z.imag)
        )
        assert np.mean(np.abs(grid) ** 2) == pytest.approx(1.0)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0)

    def test_gray_neighbours_differ_in_one_bit(self):
        for kind in ("qpsk", "qam16"):
            c = build_constellation(kind)
            d = np.abs(c.points[:, None] - c.points[None, :])
            dmin = d[d > 1e-9].min()
            bits = c.bits_of(np.arange(c.size))
            for i in range(c.size):
                for j in range(c.size):
                    if 1e-9 < d[i, j] < dmin * 1.001:
                        assert int(np.sum(bits[i] != bits[j])) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["qpsk", "qam16"]),
        shape=st.lists(st.integers(1, 5), min_size=0, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_labels(self, kind, shape, seed):
        # Read big-endian, a label's bits spell the label; demodulating the
        # labelled points gives back the labels and the same bits.
        c = build_constellation(kind)
        labels = np.random.default_rng(seed).integers(0, c.size, size=tuple(shape))
        bits = c.bits_of(labels)
        assert bits.shape == tuple(shape) + (c.bits_per_symbol,)
        assert set(np.unique(bits)) <= {0, 1}
        weights = 2 ** np.arange(c.bits_per_symbol - 1, -1, -1)
        assert np.array_equal(bits @ weights, labels)
        if labels.ndim == 2:
            demod = demodulate(c.points[labels] / np.sqrt(labels.shape[1]), c)
            assert np.array_equal(demod.indices, labels)
            assert np.array_equal(demod.bits, bits)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            build_constellation("8psk")


class TestBuildFrame:
    def test_header_length_arithmetic(self):
        assert header_length(8, 4) == 2
        assert header_length(4, 4) == 1
        assert header_length(5, 4) == 2
        assert header_length(1, 4) == 0

    def test_reference_column_shared(self):
        c = build_constellation("qpsk")
        f = build_frame(8, 32, c, np.random.default_rng(0))
        assert np.allclose(f.x[:, 0], f.meta.ref_value / np.sqrt(32))

    def test_headers_distinct_and_injective(self):
        c = build_constellation("qpsk")
        f = build_frame(8, 32, c, np.random.default_rng(0))
        assert f.meta.header_len == 2
        headers = {tuple(row) for row in f.meta.id_headers.tolist()}
        assert len(headers) == 8

    def test_too_short_frame_rejected(self):
        c = build_constellation("qpsk")
        with pytest.raises(ValueError):
            build_frame(8, 3, c, np.random.default_rng(0))

    def test_peak_magnitude_bound(self):
        c = build_constellation("qam16")
        f = build_frame(4, 64, c, np.random.default_rng(1))
        assert np.abs(f.x).max() <= c.s_infinity / np.sqrt(64) + 1e-15

    def test_frame_power_near_k(self):
        for kind in ("qpsk", "qam16"):
            c = build_constellation(kind)
            f = build_frame(8, 120, c, np.random.default_rng(2))
            p = np.linalg.norm(f.x) ** 2
            assert 0.9 * 8 <= p <= 1.1 * 8

    def test_seeded_bit_identical(self):
        c = build_constellation("qpsk")
        a = build_frame(4, 50, c, np.random.default_rng(5)).x
        b = build_frame(4, 50, c, np.random.default_rng(5)).x
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("broken, message", [
        ("reference", "reference symbol"),
        ("header_count", "one ID header per user"),
        ("repeated_header", "pairwise distinct"),
    ])
    def test_frame_checked_against_meta(self, broken, message):
        c = build_constellation("qpsk")
        f = build_frame(4, 16, c, np.random.default_rng(0))
        x, ref, headers = f.x, f.meta.ref_value, f.meta.id_headers
        if broken == "reference":
            ref = complex(c.points[1])
        elif broken == "header_count":
            headers = headers[:3]
        else:
            headers = np.vstack([headers[:3], headers[:1]])
        with pytest.raises(ValueError, match=message):
            TransmitFrame(x, FrameMeta(ref, headers), f.symbol_indices, f.payload_bits)


class TestSynthesizeReceived:
    def test_noiseless_single_user_passthrough(self):
        c = build_constellation("qpsk")
        f = build_frame(1, 16, c, np.random.default_rng(0))
        h = np.zeros((6, 1), dtype=complex)
        h[0, 0] = 1.0
        y_bar = synthesize_received(h, f.x, np.ones(1), np.ones(1), 0.0, np.random.default_rng(1))
        assert np.allclose(y_bar[0], f.x[0])
        assert np.abs(y_bar[1:]).max() == 0.0

    def test_noise_variance_moment(self):
        c = build_constellation("qpsk")
        f = build_frame(2, 500, c, np.random.default_rng(0))
        h = np.zeros((1000, 2), dtype=complex)
        sigma = 0.37
        y_bar = synthesize_received(h, f.x, np.ones(2), np.ones(2), sigma, np.random.default_rng(1))
        v = np.abs(y_bar.ravel()) ** 2  # pure noise since the channel is zero
        se = v.std(ddof=1) / np.sqrt(v.size)
        assert abs(v.mean() - sigma) < 3 * se

    def test_negative_variance_rejected(self):
        c = build_constellation("qpsk")
        f = build_frame(2, 16, c, np.random.default_rng(0))
        with pytest.raises(ValueError):
            synthesize_received(np.zeros((4, 2), complex), f.x, np.ones(2), np.ones(2), -1.0,
                                np.random.default_rng(0))

    def test_nonpositive_gains_rejected(self):
        c = build_constellation("qpsk")
        f = build_frame(2, 16, c, np.random.default_rng(0))
        h = np.zeros((4, 2), complex)
        for g, p in ((np.array([1.0, 0.0]), np.ones(2)), (np.ones(2), np.array([1.0, -1.0]))):
            with pytest.raises(ValueError, match="strictly positive"):
                synthesize_received(h, f.x, g, p, 0.0, np.random.default_rng(0))

    def test_snr_mapping(self):
        assert snr_to_noise_variance(0.0, 8, 240) == pytest.approx(8 / 240)
        assert snr_to_noise_variance(20.0, 8, 240) == pytest.approx(8 / (100 * 240))


class TestConcentrationStatistic:
    def test_exactly_orthonormal_rows(self):
        x = random_stiefel(40, 4, np.random.default_rng(0)).a.conj().T
        assert concentration_statistic(x) < 1e-9

    def test_single_unit_row(self):
        x = np.array([[1.0, 1.0]]) / np.sqrt(2)
        assert concentration_statistic(x) == pytest.approx(0.0, abs=1e-15)

    def test_statistic_shrinks_with_t(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(3)
        short = [concentration_statistic(build_frame(8, 100, c, rng).x) for _ in range(200)]
        rng = np.random.default_rng(3)
        long = [concentration_statistic(build_frame(8, 800, c, rng).x) for _ in range(200)]
        assert np.median(long) < np.median(short)
