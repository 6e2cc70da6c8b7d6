import numpy as np
import pytest

from blindmimo import (
    ArrayGeometry,
    array_response,
    bernoulli_gaussian_channel,
    clustered_channel,
    steering_matrix,
    to_angular,
)
from blindmimo.channel import _angular_channel, _responses


def dft_matrix(n):
    # Independent direct construction, double loop on purpose.
    f = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            f[j, k] = np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)
    return f


def dense_angular(geom, paths):
    """U_M^H times the spatial channel summed path by path via array_response."""
    spatial = np.zeros((geom.m_total, len(paths)), dtype=complex)
    for k, (gains, az, zen) in enumerate(paths):
        for l in range(len(gains)):
            spatial[:, k] += gains[l] * array_response(az[l], zen[l], geom)
        spatial[:, k] *= np.sqrt(geom.m_total / len(gains))
    return steering_matrix(geom).conj().T @ spatial


def per_user_angular_channel(paths, geom):
    """The angular channel built one user at a time: one response call and one tensordot per user."""
    m = geom.m_total
    h = np.empty((len(paths), geom.n_v, geom.n_h), dtype=np.complex128)
    for k, (gains, azimuths, zeniths) in enumerate(paths):
        resp = _responses(azimuths, zeniths, geom)
        h[k] = np.sqrt(m / len(gains)) * np.tensordot(gains, resp, axes=1)
    return np.fft.ifft2(h, axes=(1, 2), norm="ortho").reshape(len(paths), m).T


def effective_fraction(h):
    """Fraction of entries above 1% of the peak magnitude (effective sparsity)."""
    mag = np.abs(h)
    return np.count_nonzero(mag > 0.01 * mag.max()) / h.size


class TestSteeringMatrix:
    def test_single_element(self):
        u = steering_matrix(ArrayGeometry(1, 1))
        assert u.shape == (1, 1) and abs(u[0, 0] - 1.0) < 1e-12

    def test_two_element_ula(self):
        u = steering_matrix(ArrayGeometry(2, 1))
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(u - expected).max() < 1e-12

    def test_kronecker_structure(self):
        geom = ArrayGeometry(4, 2)
        u = steering_matrix(geom)
        expected = np.kron(dft_matrix(2), dft_matrix(4))
        assert np.abs(u - expected).max() < 1e-12

    @pytest.mark.parametrize("nh,nv", [(3, 5), (16, 16), (32, 32)])
    def test_unitary(self, nh, nv):
        u = steering_matrix(ArrayGeometry(nh, nv))
        m = nh * nv
        assert np.linalg.norm(u.conj().T @ u - np.eye(m)) < 1e-9


class TestArrayResponse:
    def test_broadside_all_ones(self):
        geom = ArrayGeometry(4, 2)
        a = array_response(0.0, np.pi / 2, geom)
        assert np.abs(a - 1.0 / np.sqrt(8)).max() < 1e-12

    def test_unit_norm(self):
        geom = ArrayGeometry(5, 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = array_response(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi / 2, np.pi / 2), geom)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_scalar_loop_oracle(self):
        geom = ArrayGeometry(2, 2)
        phi, theta = 0.7, 1.1
        a = array_response(phi, theta, geom)
        m = geom.m_total
        for nv in range(2):
            for nh in range(2):
                phase = 2 * np.pi * 0.5 * (nv * np.sin(phi) * np.sin(theta) + nh * np.cos(theta))
                want = np.exp(1j * phase) / np.sqrt(m)
                assert abs(a[nv * geom.n_h + nh] - want) < 1e-12


GEOMETRIES = [(1, 1), (2, 1), (5, 3), (16, 16), (256, 1)]


class TestClusteredChannel:
    def test_single_broadside_path(self):
        geom = ArrayGeometry(8, 1)
        chan = _angular_channel([(np.array([1.0 + 0j]), np.array([0.0]), np.array([np.pi / 2]))], geom)
        # Spatial column is all ones; its angular image is sqrt(M) e1.
        spatial = steering_matrix(geom) @ chan
        assert np.abs(spatial[:, 0] - 1.0).max() < 1e-9
        expected = np.zeros(8, dtype=complex)
        expected[0] = np.sqrt(8)
        assert np.abs(chan[:, 0] - expected).max() < 1e-9

    def test_on_grid_path_exactly_sparse(self):
        geom = ArrayGeometry(8, 1)
        # cos(theta) = 2*m/N_h lands exactly on DFT bin m.
        theta = np.arccos(2 * 2 / 8)
        chan = _angular_channel([(np.array([1.0 + 0j]), np.array([0.0]), np.array([theta]))], geom)
        assert effective_fraction(chan) == pytest.approx(1 / 8)

    def test_mean_column_energy(self):
        geom = ArrayGeometry(16, 1)
        rng = np.random.default_rng(42)
        n = 10**4
        energies = np.empty(n)
        for i in range(n):
            chan = clustered_channel([5], geom, rng)
            energies[i] = np.linalg.norm(chan[:, 0]) ** 2
        se = energies.std(ddof=1) / np.sqrt(n)
        assert abs(energies.mean() - 16.0) < 3 * se

    def test_deterministic_energy_identity(self):
        geom = ArrayGeometry(6, 2)
        rng = np.random.default_rng(1)
        n_l = 4
        az = rng.uniform(0, 2 * np.pi, n_l)
        zen = rng.uniform(-np.pi / 2, np.pi / 2, n_l)
        chan = _angular_channel([(np.ones(n_l, dtype=complex), az, zen)], geom)
        acc = np.zeros(geom.m_total, dtype=complex)
        for l in range(n_l):
            acc = acc + array_response(az[l], zen[l], geom)
        expected = (geom.m_total / n_l) * np.linalg.norm(acc) ** 2
        assert np.linalg.norm(chan[:, 0]) ** 2 == pytest.approx(expected, rel=1e-12)

    # Ids read n_h-n_v-spacing; every array is half-wavelength spaced.
    @pytest.mark.parametrize("nh,nv", GEOMETRIES, ids=[f"{nh}-{nv}-0.5" for nh, nv in GEOMETRIES])
    def test_fft_matches_dense_steering_adjoint(self, nh, nv):
        geom = ArrayGeometry(nh, nv)
        rng = np.random.default_rng(5)
        paths = [(rng.standard_normal(n_l) + 1j * rng.standard_normal(n_l),
                  rng.uniform(0, 2 * np.pi, n_l), rng.uniform(-np.pi / 2, np.pi / 2, n_l))
                 for n_l in (1, 3, 5)]
        expected = dense_angular(geom, paths)
        got = _angular_channel(paths, geom)
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_path_draw_order_pinned(self):
        # Path parameters are drawn user by user: gains (real then imaginary
        # parts), then azimuths, then zeniths.
        geom = ArrayGeometry(8, 2)
        n_paths = (2, 4)
        chan_rng = np.random.default_rng(11)
        chan = clustered_channel(n_paths, geom, chan_rng)
        rng = np.random.default_rng(11)
        paths = []
        for n_l in n_paths:
            gains = (rng.standard_normal(n_l) + 1j * rng.standard_normal(n_l)) / np.sqrt(2.0)
            az = rng.uniform(0.0, 2.0 * np.pi, n_l)
            zen = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n_l)
            paths.append((gains, az, zen))
        expected = dense_angular(geom, paths)
        assert np.linalg.norm(chan - expected) <= 1e-12 * np.linalg.norm(expected)
        # The generator is left exactly where the replayed draws leave it.
        assert chan_rng.random() == rng.random()

    @pytest.mark.parametrize("nh, nv, n_paths", [
        (256, 1, [5] * 8),
        (16, 8, [5] * 8),
        (8, 4, [1, 3, 7, 2]),
    ], ids=["ula", "planar_16x8", "unequal_paths"])
    def test_matches_per_user_build_bit_for_bit(self, nh, nv, n_paths):
        # One response pass over every path and a dot per user give the same
        # bits as building each user's responses on their own.
        geom = ArrayGeometry(nh, nv)
        chan = clustered_channel(n_paths, geom, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        paths = []
        for n_l in n_paths:
            gains = (rng.standard_normal(n_l) + 1j * rng.standard_normal(n_l)) / np.sqrt(2.0)
            az = rng.uniform(0.0, 2.0 * np.pi, n_l)
            zen = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n_l)
            paths.append((gains, az, zen))
        expected = per_user_angular_channel(paths, geom)
        assert chan.shape == expected.shape and chan.tobytes() == expected.tobytes()

    def test_off_grid_leakage_present(self):
        # Continuous angles leak energy across bins: effective sparsity is
        # neither one-bin-per-path nor full.
        geom = ArrayGeometry(16, 16)
        chan = clustered_channel([5] * 8, geom, np.random.default_rng(7))
        assert 8 * 5 / chan.size < effective_fraction(chan) < 1.0

    def test_returns_plain_matrix(self):
        chan = clustered_channel([3] * 3, ArrayGeometry(4, 2), np.random.default_rng(0))
        assert type(chan) is np.ndarray and chan.shape == (8, 3) and chan.dtype == np.complex128

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            clustered_channel([], ArrayGeometry(4, 1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            clustered_channel([0], ArrayGeometry(4, 1), np.random.default_rng(0))


class TestBernoulliGaussian:
    def test_theta_validation(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                bernoulli_gaussian_channel(4, 4, bad, rng)

    def test_tiny_theta_all_zero(self):
        chan = bernoulli_gaussian_channel(10, 10, 1e-9, np.random.default_rng(0))
        assert np.all(chan == 0)
        assert effective_fraction(chan) == 0.0

    def test_unit_variance_at_theta_one(self):
        chan = bernoulli_gaussian_channel(400, 250, 1.0, np.random.default_rng(1))
        v = np.abs(chan.ravel()) ** 2
        se = v.std(ddof=1) / np.sqrt(v.size)
        assert abs(v.mean() - 1.0) < 3 * se

    def test_nonzero_fraction(self):
        theta = 0.2
        chan = bernoulli_gaussian_channel(500, 200, theta, np.random.default_rng(2))
        frac = np.count_nonzero(chan) / chan.size
        sigma = np.sqrt(theta * (1 - theta) / chan.size)
        assert abs(frac - theta) < 3 * sigma

    def test_returns_plain_matrix(self):
        chan = bernoulli_gaussian_channel(7, 3, 0.5, np.random.default_rng(0))
        assert type(chan) is np.ndarray and chan.shape == (7, 3) and chan.dtype == np.complex128

    def test_seeded_bit_identical(self):
        a = bernoulli_gaussian_channel(20, 5, 0.4, np.random.default_rng(9))
        b = bernoulli_gaussian_channel(20, 5, 0.4, np.random.default_rng(9))
        assert a.tobytes() == b.tobytes()


class TestToAngular:
    def test_identity_steering(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert np.allclose(to_angular(y, np.eye(4)), y)

    def test_norm_preserved_and_round_trip(self):
        geom = ArrayGeometry(4, 2)
        u = steering_matrix(geom)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        yb = to_angular(y, u)
        assert abs(np.linalg.norm(yb) - np.linalg.norm(y)) < 1e-9
        assert np.linalg.norm(u @ yb - y) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            to_angular(np.zeros((3, 2)), np.eye(4))


@pytest.mark.parametrize("call, message", [
    (lambda: ArrayGeometry(0, 1), "array dimensions must be positive"),
    (lambda: bernoulli_gaussian_channel(0, 4, 0.5, np.random.default_rng(0)), "dimensions must be positive"),
    (lambda: bernoulli_gaussian_channel(4, 0, 0.5, np.random.default_rng(0)), "dimensions must be positive"),
    (lambda: to_angular(np.zeros((4, 2)), np.zeros((4, 3))), "steering matrix must be square"),
], ids=["geometry", "bernoulli_gaussian_m", "bernoulli_gaussian_k", "to_angular_not_square"])
def test_inputs_that_cannot_work_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
