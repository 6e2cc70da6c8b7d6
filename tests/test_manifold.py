import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindmimo import (
    RankDeficientError,
    StiefelPoint,
    nuclear_norm,
    objective,
    polar_retract,
    precondition,
    random_stiefel,
    real_inner,
    riemannian_grad,
)
from blindmimo import manifold
from blindmimo.manifold import ORTHONORMALITY_TOL, _GRAM_RTOL, _check_orthonormal, _polar, _top_factors


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestStiefelPoint:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            StiefelPoint(np.ones((4, 2), dtype=complex))

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            StiefelPoint(np.eye(2, 3))

    def test_accepts_identity_frame(self):
        p = StiefelPoint(np.eye(5, 2))
        assert p.a.shape == (5, 2)
        assert not p.a.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 8),
        extra_t=st.integers(0, 32),
        log_eps=st.floats(-11.0, -8.0),
        one_column=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_loop_check_accepts_what_the_point_accepts(self, k, extra_t, log_eps, one_column, seed):
        # Perturbations around the 1e-9 tolerance, of one column's norm or of
        # the whole matrix.  The reference bounds each column norm as well as
        # the Gram residual; the Gram bound alone implies the column bound,
        # since |n - 1| <= |n^2 - 1| <= ||A^H A - I||_F.
        rng = np.random.default_rng(seed)
        a = random_stiefel(k + extra_t, k, rng)
        eps = 10.0**log_eps
        if one_column:
            a[:, rng.integers(k)] *= 1.0 + eps * rng.choice([-1.0, 1.0])
        else:
            e = crandn(rng, k + extra_t, k)
            a += eps * e / np.linalg.norm(e)
        gram_err = np.linalg.norm(a.conj().T @ a - np.eye(k))
        col_err = np.abs(np.linalg.norm(a, axis=0) - 1.0).max()
        expected = gram_err < ORTHONORMALITY_TOL and col_err < ORTHONORMALITY_TOL

        def accepts(check):
            try:
                check(a)
            except ValueError:
                return False
            return True

        assert accepts(_check_orthonormal) == expected
        assert accepts(StiefelPoint) == expected


class TestRandomStiefel:
    def test_scalar_case_unit_modulus(self):
        p = random_stiefel(1, 1, np.random.default_rng(3))
        assert abs(abs(p[0, 0]) - 1.0) < 1e-12

    def test_orthonormality(self):
        rng = np.random.default_rng(0)
        for t, k in [(4, 1), (8, 3), (50, 10)]:
            p = random_stiefel(t, k, rng)
            assert np.linalg.norm(p.conj().T @ p - np.eye(k)) < 1e-9

    def test_rejects_bad_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_stiefel(2, 3, rng)
        with pytest.raises(ValueError):
            random_stiefel(0, 0, rng)

    def test_returns_c_contiguous_array(self):
        p = random_stiefel(9, 4, np.random.default_rng(4))
        assert type(p) is np.ndarray and p.dtype == np.complex128 and p.flags.c_contiguous

    def test_seeded_draws_bit_identical(self):
        a = random_stiefel(6, 2, np.random.default_rng(123))
        b = random_stiefel(6, 2, np.random.default_rng(123))
        assert a.tobytes() == b.tobytes()

    def test_haar_column_energy_uniform(self):
        # Each of the 8 coordinates of a unit column carries expected
        # energy 1/8 under any left-unitary-invariant distribution.
        rng = np.random.default_rng(2024)
        n = 10**5
        vals = np.empty(n)
        for i in range(n):
            g = crandn(rng, 8, 2)
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            q = q * (d / np.abs(d))[np.newaxis, :]
            vals[i] = abs(q[0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / 8.0) < 3 * se

    def test_matches_inline_qr_convention(self):
        # Phase-fixed QR of the same Gaussian draw reproduces the sample.
        rng = np.random.default_rng(77)
        p = random_stiefel(8, 2, rng)
        rng = np.random.default_rng(77)
        g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        q, r = np.linalg.qr(g / np.sqrt(2.0))
        d = np.diagonal(r)
        q = q * (d / np.abs(d))[np.newaxis, :]
        assert np.allclose(p, q, atol=1e-15)


class TestPolarRetract:
    def test_fixed_point_on_manifold(self):
        rng = np.random.default_rng(1)
        p = random_stiefel(7, 3, rng)
        again = polar_retract(p)
        assert np.abs(again - p).max() < 1e-10

    def test_positive_diagonal_case(self):
        m = np.zeros((4, 2), dtype=complex)
        m[0, 0], m[1, 1] = 2.0, 3.0
        out = polar_retract(m)
        assert np.abs(out - np.eye(4, 2)).max() < 1e-12

    def test_matches_inverse_sqrt_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = crandn(rng, 12, 4)
            w, v = np.linalg.eigh(m.conj().T @ m)
            oracle = m @ (v @ np.diag(w**-0.5) @ v.conj().T)
            assert np.linalg.norm(polar_retract(m) - oracle) < 1e-8

    @pytest.mark.parametrize("kappa", [1.0, 1e8])
    def test_returns_c_contiguous_array(self, kappa):
        # kappa 1 takes the Gram route and 1e8 the SVD; the input is Fortran-ordered.
        m = np.asfortranarray(with_condition(np.random.default_rng(6), 12, 4, kappa))
        out = polar_retract(m)
        assert type(out) is np.ndarray and out.dtype == np.complex128 and out.flags.c_contiguous

    def test_rank_deficient_rejected(self):
        m = np.zeros((5, 2), dtype=complex)
        m[:, 0] = 1.0
        with pytest.raises(RankDeficientError):
            polar_retract(m)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        m = crandn(rng, 9, 3)
        once = polar_retract(m)
        twice = polar_retract(once)
        assert np.abs(twice - once).max() < 1e-10

    def test_maximizes_real_inner_product(self):
        rng = np.random.default_rng(11)
        m = crandn(rng, 10, 3)
        best = real_inner(m, polar_retract(m))
        for _ in range(1000):
            a = random_stiefel(10, 3, rng)
            assert real_inner(m, a) <= best + 1e-12


def with_spectrum(rng, rows, cols, s):
    """A rows x cols matrix with singular values ``s`` (min(rows, cols) of them) and Haar singular vectors."""
    n = min(rows, cols)
    u, _ = np.linalg.qr(crandn(rng, rows, n))
    v, _ = np.linalg.qr(crandn(rng, cols, n))
    return (u * s) @ v.conj().T


def with_condition(rng, t, k, kappa, scale=1.0):
    """A t x k matrix with singular values geometrically spaced from scale to scale / kappa."""
    return with_spectrum(rng, t, k, scale * np.geomspace(1.0, 1.0 / kappa, k))


class TestGramPolar:
    @pytest.mark.parametrize("shape", [(240, 8), (40, 8), (9, 3), (5, 1)])
    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    def test_matches_svd_when_well_conditioned(self, linalg_calls, shape, kappa):
        rng = np.random.default_rng(int(kappa) * 1000 + shape[0])
        for scale in (1e-6, 1.0, 1e9):
            m = with_condition(rng, *shape, kappa, scale)
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            linalg_calls.clear()
            s_gram, polar = _polar(m)
            assert linalg_calls == ["_eigh"]
            assert np.abs(s_gram - s).max() <= 1e-12 * s[0]
            assert np.abs(polar() - u @ vh).max() <= 1e-12
            assert np.abs(polar_retract(m) - u @ vh).max() <= 1e-12

    @pytest.mark.parametrize("kappa", [1e4, 1e8])
    def test_ill_conditioned_takes_svd_bit_for_bit(self, linalg_calls, kappa):
        rng = np.random.default_rng(3)
        m = with_condition(rng, 240, 8, kappa)
        u, _, vh = np.linalg.svd(m, full_matrices=False)
        assert np.array_equal(polar_retract(m), u @ vh)
        assert linalg_calls[-1] == "_svd"

    def test_zero_takes_svd_and_raises(self, linalg_calls):
        m = np.zeros((6, 2), dtype=complex)
        with pytest.raises(RankDeficientError):
            polar_retract(m)
        assert linalg_calls == ["_svd"]

    def test_threshold_on_squared_condition_number(self, linalg_calls):
        # The cut is on eigenvalues of m^H m, i.e. on cond(m)^2.
        rng = np.random.default_rng(4)
        edge = _GRAM_RTOL**-0.5
        _polar(with_condition(rng, 30, 4, edge / 1.01))
        assert linalg_calls == ["_eigh"]
        _polar(with_condition(rng, 30, 4, edge * 1.01))
        assert linalg_calls == ["_eigh", "_eigh", "_svd"]

    def test_top_r_only(self, linalg_calls):
        rng = np.random.default_rng(5)
        y = crandn(rng, 30, 12)
        u, s, vh = np.linalg.svd(y, full_matrices=False)
        s_gram, left, right = _top_factors(y, 4)
        assert linalg_calls == ["_eigh"]
        assert s_gram.shape == (4,)
        assert np.abs(s_gram - s[:4]).max() <= 1e-12 * s[0]
        assert np.abs(left @ right - u[:, :4] @ vh[:4]).max() <= 1e-12


class TestPolar:
    @pytest.mark.parametrize("kappa", [1e4, 1e8])
    @pytest.mark.parametrize("r", [None, 7])
    def test_ill_conditioned_matches_svd_bit_for_bit(self, kappa, r):
        # r = None is _polar; r = 7 is _top_factors on the top 7.
        m = with_condition(np.random.default_rng(6), 240, 8, kappa)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        if r is None:
            s_got, polar = _polar(m)
            assert np.array_equal(s_got, s)
            assert np.array_equal(polar(), u @ vh)
        else:
            s_got, left, right = _top_factors(m, r)
            assert np.array_equal(s_got, s[:r])
            assert np.array_equal(left, u[:, :r]) and np.array_equal(right, vh[:r])

    def test_well_conditioned_takes_gram(self, linalg_calls):
        m = with_condition(np.random.default_rng(7), 40, 8, 10.0)
        lam, _ = np.linalg.eigh(m.conj().T @ m)
        assert np.array_equal(_polar(m)[0], np.sqrt(lam[::-1]))
        assert linalg_calls == ["_eigh"]

    def test_wide_takes_svd(self, linalg_calls):
        m = crandn(np.random.default_rng(8), 3, 7)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        s_got, polar = _polar(m)
        assert linalg_calls == ["_svd"]
        assert np.array_equal(s_got, s)
        assert np.array_equal(polar(), u @ vh)

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 1e8])
    def test_square_takes_svd(self, linalg_calls, kappa):
        # A Gram is no smaller than a square matrix, so it takes the SVD even
        # where the Gram route would accept it.
        m = with_condition(np.random.default_rng(12), 8, 8, kappa)
        u, s, vh = np.linalg.svd(m)
        s_got, polar = _polar(m)
        assert linalg_calls == ["_svd"]
        assert np.array_equal(s_got, s)
        assert np.array_equal(polar(), u @ vh)
        assert np.array_equal(polar_retract(m), u @ vh)

    def test_rank_deficient_square_raises_from_the_factor(self):
        rng = np.random.default_rng(13)
        m = crandn(rng, 6, 3) @ crandn(rng, 3, 6)
        s, polar = _polar(m)
        assert s.shape == (6,) and s[-1] <= 1e-12 * s[0]
        with pytest.raises(RankDeficientError):
            polar()

    @pytest.mark.parametrize("shape", [(6, 2), (2, 6)])
    def test_zero_raises(self, shape):
        s, polar = _polar(np.zeros(shape, dtype=complex))
        assert not s.any()
        with pytest.raises(RankDeficientError):
            polar()


class TestLapackRoute:
    """``_polar`` calls NumPy's zheevd and zgesdd gufuncs directly; NumPy's eigh and svd are the reference."""

    @staticmethod
    def factorize(m, r=None):
        """``_polar(m)`` as (s, its factor), or with ``r`` given ``_top_factors(m, r)`` as (s, (u, vh))."""
        if r is None:
            s, factor = _polar(m)
            return s, factor()
        s, u, vh = _top_factors(m, r)
        return s, (u, vh)

    def through_numpy(self, monkeypatch, m, r=None):
        with monkeypatch.context() as mp:
            mp.setattr(manifold, "_eigh", np.linalg.eigh)
            mp.setattr(manifold, "_svd", lambda x: np.linalg.svd(x, full_matrices=False))
            return self.factorize(m, r)

    def assert_bit_for_bit(self, monkeypatch, m, r=None):
        s_ref, f_ref = self.through_numpy(monkeypatch, m, r)
        s, f = self.factorize(m, r)
        assert np.array_equal(s, s_ref)
        for got, ref in zip(f if r else (f,), f_ref if r else (f_ref,)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", [(240, 8), (40, 8)])
    @pytest.mark.parametrize("kappa", [1.0, 10.0])
    def test_gram_route(self, monkeypatch, linalg_calls, shape, kappa):
        rng = np.random.default_rng(20 + shape[0] + int(kappa))
        for _ in range(20):
            m = with_condition(rng, *shape, kappa, scale=rng.uniform(0.5, 2.0))
            linalg_calls.clear()
            self.assert_bit_for_bit(monkeypatch, m)
            assert linalg_calls == ["_eigh"]

    @pytest.mark.parametrize("shape", [(240, 8), (40, 8)])
    @pytest.mark.parametrize("kappa", [1e3, 1e8])
    def test_svd_route(self, monkeypatch, linalg_calls, shape, kappa):
        rng = np.random.default_rng(30 + shape[0] + int(np.log10(kappa)))
        for _ in range(5):
            m = with_condition(rng, *shape, kappa)
            self.assert_bit_for_bit(monkeypatch, m)
            assert linalg_calls[-1] == "_svd"

    @pytest.mark.parametrize("k", [1, 4, 8])
    @pytest.mark.parametrize("kappa", [1.0, 10.0])
    def test_square_takes_the_svd_route(self, monkeypatch, linalg_calls, k, kappa):
        # The Gram route's cut would accept each of these; the SVD answers
        # instead, bit for bit against np.linalg.svd.
        rng = np.random.default_rng(40 + k + int(kappa))
        for _ in range(5):
            m = with_condition(rng, k, k, kappa, scale=rng.uniform(0.5, 2.0))
            lam = np.linalg.eigvalsh(m.conj().T @ m)
            assert lam[0] > _GRAM_RTOL * lam[-1]
            u, s, vh = np.linalg.svd(m)
            linalg_calls.clear()
            s_got, factor = _polar(m)
            assert linalg_calls == ["_svd"]
            assert np.array_equal(s_got, s)
            assert np.array_equal(factor(), u @ vh)
            self.assert_bit_for_bit(monkeypatch, m)

    def test_top_k_of_a_dense_block(self, monkeypatch, linalg_calls):
        # A 256 x 40 block whose top 8 directions are too spread for the Gram
        # takes the SVD and keeps its top 8 singular vectors.
        m = with_condition(np.random.default_rng(9), 256, 40, 1e20)
        self.assert_bit_for_bit(monkeypatch, m, 8)
        linalg_calls.clear()
        _top_factors(m, 8)
        assert linalg_calls == ["_eigh", "_svd"]

    @pytest.mark.parametrize("shape", [(240, 40), (41, 40), (256, 24), (256, 95)])
    def test_top_k_gram_matches_numpy_eigh(self, linalg_calls, shape):
        # Below 96 columns, preconditioning's top-K eigenpairs of a strictly
        # tall block are the top of np.linalg.eigh's, reversed to descending
        # order, bit for bit: the same Gram and the same zheevd.
        rng = np.random.default_rng(50 + shape[1])
        for _ in range(10):
            m = crandn(rng, *shape)
            lam, v = np.linalg.eigh(m.conj().T @ m)
            lam, v = lam[::-1][:8], v[:, ::-1][:, :8]
            linalg_calls.clear()
            s, left, vh = _top_factors(m, 8)
            assert linalg_calls == ["_eigh"]
            assert np.array_equal(s, np.sqrt(lam))
            assert np.array_equal(vh, v.conj().T)
            assert np.array_equal(left, m @ (v / s))

    def test_svd_workspace_is_queried(self):
        # At 300 x 64 zgesdd's default workspace blocks differently and moves
        # the last bits of U and V^H; the queried one, which np.linalg.svd
        # uses, does not.  The reference runs on the same OpenBLAS as _svd:
        # SciPy's copy rounds differently with two threads.
        m = crandn(np.random.default_rng(11), 300, 64)
        ref = np.linalg.svd(m, full_matrices=False)
        assert all(np.array_equal(got, want) for got, want in zip(manifold._svd(m), ref))

    @pytest.mark.parametrize("routine, kappa, message", [
        ("zheevd", 1.0, "Eigenvalues did not converge"),
        ("zgesdd", 1e8, "SVD did not converge"),
    ])
    def test_nonzero_info_raises(self, monkeypatch, routine, kappa, message):
        # The gufunc reports LAPACK's nonzero info as NaN outputs and the
        # invalid-value flag; a NaN matrix handed to the real gufunc fails so.
        # polar_retract calls _polar inside the error state that turns the
        # flag into LinAlgError.
        name = {"zheevd": "eigh_lo", "zgesdd": "svd_s"}[routine]
        real = getattr(manifold, name)
        monkeypatch.setattr(manifold, name, lambda x, **kw: real(np.full_like(x, np.nan), **kw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=message):
                polar_retract(with_condition(np.random.default_rng(10), 40, 8, kappa))

    @pytest.mark.parametrize("shape, kappa, route", [
        ((8, 8), 10.0, ["_svd"]),
        ((240, 8), 10.0, ["_eigh"]),
        ((240, 8), 1e8, ["_eigh", "_svd"]),
    ], ids=["square", "tall", "tall_ill_conditioned"])
    def test_gufuncs_match_numpy_linalg(self, linalg_calls, shape, kappa, route):
        # _eigh and _svd call NumPy's private gufuncs; the public functions
        # over them are the reference, so a NumPy change to the private
        # module fails here.  The ill-conditioned block falls back to the SVD.
        m = with_condition(np.random.default_rng(60 + shape[0]), *shape, kappa)
        _polar(m)
        assert linalg_calls == route
        gram = m.conj().T @ m
        assert all(np.array_equal(got, want) for got, want in zip(manifold._eigh(gram), np.linalg.eigh(gram)))
        ref = np.linalg.svd(m, full_matrices=False)
        assert all(np.array_equal(got, want) for got, want in zip(manifold._svd(m), ref))

    def test_non_finite_top_k_raises(self):
        # _top_factors checks the Gram before zheevd runs, as scipy.linalg.eigh did.
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            _top_factors(np.full((40, 8), np.nan, dtype=complex), 4)

    def test_nan_gradient_raises(self):
        # Each public function that factors enters the error state itself.
        for call in (polar_retract, nuclear_norm):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                    call(np.full((40, 8), np.nan, dtype=complex))


class TestTopFactors:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 24),
        cols=st.integers(1, 24),
        r=st.integers(1, 10),
        log_kappa=st.floats(0.0, 20.0),
        scale=st.sampled_from([1e-6, 1.0, 1e9]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Equal singular values put the Gram's top in one tight cluster, where
    # SciPy's zheevr, which preconditioning once used, returned fewer pairs
    # than asked: 0 of 2 with one OpenBLAS thread, and 0 of 1 with one or two.
    @example(rows=256, cols=40, r=2, log_kappa=0.0, scale=1.0, seed=2)
    @example(rows=13, cols=11, r=1, log_kappa=0.0, scale=1e9, seed=1)
    def test_top_factors_match_truncated_svd(self, rows, cols, r, log_kappa, scale, seed):
        # Tall, square and wide blocks, from well conditioned to numerically
        # rank deficient: _top_factors gives the truncated SVD's top r
        # singular values, orthonormal factors, and m vh^H = u S, u^H m = S vh.
        n = min(rows, cols)
        m = with_condition(np.random.default_rng(seed), max(rows, cols), n, 10.0**log_kappa, scale)
        m = m if rows >= cols else m.T
        s_ref = np.linalg.svd(m, compute_uv=False)
        s, u, vh = _top_factors(m, r)
        k = min(r, n)
        assert s.shape == (k,) and u.shape == (rows, k) and vh.shape == (k, cols)
        assert np.abs(s - s_ref[:k]).max() <= 1e-12 * s_ref[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < 1e-10
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(k)) < 1e-10
        assert np.abs(m @ vh.conj().T - u * s).max() <= 1e-12 * s_ref[0]
        assert np.abs(u.conj().T @ m - s[:, np.newaxis] * vh).max() <= 1e-12 * s_ref[0]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_precondition_keeps_a_clustered_top(self, seed):
        # 40 equal singular values: SciPy's zheevr, which preconditioning once
        # used, returned 5 of the 7 top pairs at seed 0 with one OpenBLAS
        # thread and at seed 7 with two, and precondition reported too few
        # usable directions.
        m = with_condition(np.random.default_rng(seed), 256, 40, 1.0)
        u, vh = precondition(m, 7)
        assert u.shape == (256, 7) and vh.shape == (7, 40)
        assert np.linalg.norm(u.conj().T @ u - np.eye(7)) < 1e-10
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(7)) < 1e-10
        assert np.abs(m @ vh.conj().T - u).max() <= 1e-12


class TestTopSubspace:
    """``_top_factors`` on blocks of at least 96 columns, where ``_top_subspace`` answers first."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(24, 400),
        cols=st.integers(96, 400),
        r=st.integers(1, 10),
        clustered=st.booleans(),
        n_signal=st.integers(1, 12),
        log_floor=st.floats(-5.0, -0.3),
        log_kappa=st.floats(1.0, 4.0),
        scale=st.sampled_from([1e-6, 1.0, 1e9, 1e150]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_truncated_svd(self, rows, cols, r, clustered, n_signal, log_floor, log_kappa, scale, seed):
        # Clustered spectra: n_signal singular values in [0.5, 1] over a
        # floor of noise-like ones below 10^log_floor, as a received block's
        # are.  Slowly decaying spectra: geometric from 1 to 10^-log_kappa over
        # all min(rows, cols), where the iteration converges slowly or hits
        # its step cap and the full route answers.  At 1e150 the Gram's
        # entries reach 1e300, as precondition allows.  The bounds are
        # TestTopFactors' own.
        rng = np.random.default_rng(seed)
        n = min(rows, cols)
        if clustered:
            sv = np.concatenate([rng.uniform(0.5, 1.0, n_signal), 10.0**log_floor * rng.uniform(0.0, 1.0, n)])
            sv = np.sort(sv)[::-1][:n]
        else:
            sv = np.geomspace(1.0, 10.0**-log_kappa, n)
        m = with_spectrum(rng, rows, cols, scale * sv)
        s_ref = np.linalg.svd(m, compute_uv=False)
        with manifold._numerics():
            s, u, vh = _top_factors(m, r)
        k = min(r, n)
        assert s.shape == (k,) and u.shape == (rows, k) and vh.shape == (k, cols)
        assert np.abs(s - s_ref[:k]).max() <= 1e-12 * s_ref[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < 1e-10
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(k)) < 1e-10
        assert np.abs(m @ vh.conj().T - u * s).max() <= 1e-12 * s_ref[0]
        assert np.abs(u.conj().T @ m - s[:, np.newaxis] * vh).max() <= 1e-12 * s_ref[0]

    @staticmethod
    def received(t, seed=3, n_signal=8, floor=1e-2):
        """A 256 x t block like a received one: eight directions in [0.5, 1] over a noise floor."""
        rng = np.random.default_rng(seed)
        return with_spectrum(rng, 256, t, np.concatenate([rng.uniform(0.5, 1.0, n_signal),
                                                          floor * rng.uniform(0.0, 1.0, min(256, t) - n_signal)]))

    @pytest.mark.parametrize("t, floor", [pytest.param(t, 1e-2, id=str(t)) for t in (96, 240, 400)]
                             + [(96, 0.3), (120, 0.3), (96, 1e-3), (240, 1e-3), (400, 1e-3)])
    def test_long_block_takes_the_subspace_route(self, monkeypatch, t, floor):
        # No eigendecomposition larger than the 12 x 12 Rayleigh quotients
        # and their Grams runs, tall (t < 256) or wide, and the factors
        # agree with the truncated SVD's.  A floor of 0.3 puts the eighth
        # direction next to the noise near the switch; at 1e-3 the start's
        # largest rows are nearly dependent, and ``_polar`` takes their SVD.
        m = self.received(t, floor=floor)
        shapes = []
        real = manifold._eigh
        monkeypatch.setattr(manifold, "_eigh", lambda g: shapes.append(g.shape) or real(g))
        with manifold._numerics():
            s, u, vh = _top_factors(m, 8)
        assert set(shapes) == {(12, 12)}
        u_ref, s_ref, vh_ref = np.linalg.svd(m, full_matrices=False)
        assert np.abs(s - s_ref[:8]).max() <= 1e-13 * s_ref[0]
        assert np.abs(u @ vh - u_ref[:, :8] @ vh_ref[:8]).max() <= 1e-12

    @pytest.mark.parametrize("t", [95, 96])
    def test_crossover(self, linalg_calls, t):
        # The subspace route starts at 96 columns; below it the full zheevd answers.
        with manifold._numerics():
            _top_factors(self.received(t), 8)
        assert (linalg_calls[0] == "_top_subspace") == (t >= 96)

    def test_step_cap_falls_back_to_the_full_eigh(self, monkeypatch):
        # One step cannot meet the residual test from the start; the full
        # zheevd of the 240 x 240 Gram then answers, bit for bit as the
        # full route does on its own.
        m = self.received(240)
        monkeypatch.setattr(manifold, "_SUBSPACE_MIN_T", 10**9)
        with manifold._numerics():
            ref = _top_factors(m, 8)
        monkeypatch.setattr(manifold, "_SUBSPACE_MIN_T", 96)
        monkeypatch.setattr(manifold, "_SUBSPACE_STEPS", 1)
        shapes = []
        real = manifold._eigh
        monkeypatch.setattr(manifold, "_eigh", lambda g: shapes.append(g.shape) or real(g))
        with manifold._numerics():
            got = _top_factors(m, 8)
        assert shapes[-1] == (240, 240) and set(shapes[:-1]) == {(12, 12)}
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_rank_deficient_start_falls_back(self, linalg_calls):
        # A noiseless rank-8 block: its 12 largest rows span 8 directions, so
        # the start has no orthonormal basis and the full route answers.
        m = self.received(240, floor=0.0)
        with manifold._numerics():
            s, u, vh = _top_factors(m, 8)
        assert linalg_calls[0] == "_top_subspace" and linalg_calls[-1] == "_eigh"
        s_ref = np.linalg.svd(m, compute_uv=False)
        assert np.abs(s - s_ref[:8]).max() <= 1e-12 * s_ref[0]
        assert np.abs(u.conj().T @ m - s[:, np.newaxis] * vh).max() <= 1e-12 * s_ref[0]


class TestRiemannianGrad:
    def test_zero_at_hermitian_multiple(self):
        rng = np.random.default_rng(2)
        a = random_stiefel(8, 3, rng)
        s = crandn(rng, 3, 3)
        s = s + s.conj().T
        out = riemannian_grad(a, a @ s)
        assert np.linalg.norm(out) < 1e-10

    def test_zero_gradient(self):
        a = random_stiefel(6, 2, np.random.default_rng(4))
        assert np.linalg.norm(riemannian_grad(a, np.zeros((6, 2)))) == 0.0

    def test_shape_mismatch(self):
        a = random_stiefel(6, 2, np.random.default_rng(4))
        with pytest.raises(ValueError):
            riemannian_grad(a, np.zeros((6, 3)))

    def test_tangency(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_stiefel(12, 4, rng)
            g = crandn(rng, 12, 4)
            xi = riemannian_grad(a, g)
            sym = a.conj().T @ xi
            assert np.linalg.norm(sym + sym.conj().T) < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.integers(1, 64),
        k=st.integers(1, 8),
        log_scale=st.floats(-3.0, 14.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tangent_by_construction(self, t, k, log_scale, seed):
        # No runtime check enforces tangency, so the projection must keep
        # a^H xi + xi^H a within 1e-8 * max(1, ||xi||_F) on its own, up to the
        # ~1e14 gradients of rgd on a preconditioned short frame.
        rng = np.random.default_rng(seed)
        a = random_stiefel(t, min(k, t), rng)
        g = 10.0**log_scale * crandn(rng, *a.shape)
        xi = riemannian_grad(a, g)
        sym = a.conj().T @ xi
        assert np.linalg.norm(sym + sym.conj().T) < 1e-8 * max(1.0, np.linalg.norm(xi))
        assert np.array_equal(xi, riemannian_grad(a, g))

    def test_directional_derivative_along_retracted_path(self):
        # d/dt Psi(polar(A + t*xi)) at t=0 equals Re<grad, xi> = ||xi||^2
        # for xi the projected gradient.
        rng = np.random.default_rng(9)
        y = crandn(rng, 20, 10)
        g_diag = np.ones(3)
        a = random_stiefel(10, 3, rng)
        egrad = 3.0 * (y.conj().T @ (np.abs(y @ a) * (y @ a)))
        xi = riemannian_grad(a, egrad)
        h = 1e-5
        fp = objective(y, polar_retract(a + h * xi), g_diag)
        fm = objective(y, polar_retract(a - h * xi), g_diag)
        fd = (fp - fm) / (2 * h)
        expected = float(np.linalg.norm(xi) ** 2)
        assert abs(fd - expected) / expected < 1e-4


class TestNuclearNorm:
    def test_identity_frame(self):
        assert abs(nuclear_norm(np.eye(7, 3)) - 3.0) < 1e-12

    def test_rank_one(self):
        rng = np.random.default_rng(12)
        u = crandn(rng, 6)
        v = crandn(rng, 2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert abs(nuclear_norm(np.outer(u, v.conj())) - 1.0) < 1e-12

    def test_eigen_oracle(self):
        rng = np.random.default_rng(13)
        m = crandn(rng, 9, 4)
        w = np.linalg.eigvalsh(m.conj().T @ m)
        assert abs(nuclear_norm(m) - np.sqrt(np.maximum(w, 0)).sum()) < 1e-9
