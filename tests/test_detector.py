import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blindmimo import (
    DegenerateGradientError,
    RankDeficientError,
    SolverOptions,
    SolveTrace,
    StiefelPoint,
    SystemConfig,
    bernoulli_gaussian_channel,
    build_constellation,
    build_frame,
    build_scenario,
    demodulate,
    detect,
    euclid_grad,
    evm,
    iterate,
    objective,
    optimality_eta,
    pilot_zf_baseline,
    polar_retract,
    postprocess,
    precondition,
    random_stiefel,
    resolve_ambiguity,
    riemannian_gd_baseline,
    riemannian_grad,
    solve,
    synthesize_received,
)
from blindmimo import manifold
from blindmimo.detector import MONOTONE_SLACK, _soft_threshold
from blindmimo.signal import header_length


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def noiseless_instance(rng, m=64, k=3, t=50, theta=0.15):
    """Orthonormal-row data through a sparse channel, no noise."""
    x = random_stiefel(t, k, rng).a.conj().T
    chan = bernoulli_gaussian_channel(m, k, theta, rng)
    return chan @ x, chan, x


class TestObjective:
    def test_hand_case(self):
        y = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        assert objective(y, np.eye(2, dtype=complex), np.ones(2)) == pytest.approx(9.0)

    def test_null_space_columns(self):
        rng = np.random.default_rng(0)
        y = np.outer(crandn(rng, 5), np.array([1.0, 0, 0]))  # rank 1, T=3
        a = np.eye(3, dtype=complex)[:, 1:]  # columns orthogonal to the row space
        assert objective(y, a, np.ones(2)) == 0.0

    def test_planted_orthonormal_rows_give_channel_norm(self):
        rng = np.random.default_rng(1)
        y, chan, x = noiseless_instance(rng)
        val = objective(y, x.conj().T, np.ones(3))
        assert val == pytest.approx(float((np.abs(chan) ** 3).sum()), rel=1e-10)

    def test_g_weighting(self):
        y = np.array([[2.0]], dtype=complex)
        assert objective(y, np.eye(1, dtype=complex), np.array([4.0])) == pytest.approx(1.0)

    def test_right_rotation_equivariance(self):
        # Rotating the received block's column space and counter-rotating the
        # iterate leaves the objective unchanged.
        rng = np.random.default_rng(7)
        y = crandn(rng, 12, 8)
        a = random_stiefel(8, 3, rng)
        q, _ = np.linalg.qr(crandn(rng, 8, 8))
        g_diag = np.ones(3)
        assert objective(y @ q, q.conj().T @ a.a, g_diag) == pytest.approx(
            objective(y, a, g_diag), rel=1e-12
        )


class TestEuclidGrad:
    def test_zero_output_for_null_point(self):
        rng = np.random.default_rng(0)
        y = np.outer(crandn(rng, 5), np.array([1.0, 0, 0]))
        a = np.eye(3, dtype=complex)[:, 1:]
        assert np.abs(euclid_grad(y, a, np.ones(2))).max() == 0.0

    @pytest.mark.parametrize("p", [3, 4])
    def test_finite_difference_oracle(self, p):
        for i in range(8):
            rng = np.random.default_rng(100 * p + i)
            y = crandn(rng, 12, 10)
            a = random_stiefel(10, 2, rng)
            g_diag = np.array([1.3, 0.6])
            grad = euclid_grad(y, a, g_diag, p)
            delta = crandn(rng, 10, 2)
            h = 1e-5
            fd = (objective(y, a.a + h * delta, g_diag, p)
                  - objective(y, a.a - h * delta, g_diag, p)) / (2 * h)
            an = float(np.real(np.vdot(grad, delta)))
            assert abs(fd - an) / max(abs(fd), 1e-12) < 1e-4

    def test_column_phase_invariance(self):
        rng = np.random.default_rng(5)
        y = crandn(rng, 15, 8)
        a = random_stiefel(8, 3, rng)
        g_diag = np.ones(3)
        phases = np.exp(2j * np.pi * rng.random(3))
        assert objective(y, a.a * phases, g_diag) == pytest.approx(
            objective(y, a, g_diag), rel=1e-12
        )
        grad = euclid_grad(y, a, g_diag)
        for k in range(3):
            # moving along the phase orbit of one column changes nothing
            d = float(np.real(np.vdot(grad[:, k], 1j * a.a[:, k])))
            assert abs(d) < 1e-8 * np.linalg.norm(grad[:, k])


class TestIterate:
    def test_fixed_point(self):
        # Diagonal-positive block: A = [I; 0] is stationary by construction.
        t, k = 6, 2
        y = np.zeros((k, t), dtype=complex)
        y[0, 0], y[1, 1] = 1.5, 0.7
        a = StiefelPoint(np.eye(t, k))
        nxt = iterate(a, y, np.ones(k))
        assert np.abs(nxt.a - a.a).max() < 1e-9

    def test_ascent_step(self):
        rng = np.random.default_rng(3)
        y, _, _ = noiseless_instance(rng)
        a = random_stiefel(50, 3, rng)
        before = objective(y, a, np.ones(3))
        after = objective(y, iterate(a, y, np.ones(3)), np.ones(3))
        assert after >= before - 1e-12

    def test_unit_step_attains_grid_maximum(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            y = crandn(rng, 20, 16)
            a = random_stiefel(16, 3, rng)
            g_diag = np.ones(3)
            s = polar_retract(euclid_grad(y, a, g_diag))
            grid = np.linspace(0.0, 1.0, 21)
            vals = [objective(y, (1 - u) * a.a + u * s.a, g_diag) for u in grid]
            assert int(np.argmax(vals)) == len(grid) - 1


class TestOptimalityEta:
    def test_zero_at_polar_of_gradient(self):
        rng = np.random.default_rng(0)
        y = crandn(rng, 10, 8)
        a = random_stiefel(8, 2, rng)
        grad = euclid_grad(y, a, np.ones(2))
        at_polar = polar_retract(grad)
        grad2 = euclid_grad(y, at_polar, np.ones(2))
        # not stationary in general, but eta at its own polar point vanishes
        assert optimality_eta(at_polar, grad) < 1e-9 * np.linalg.norm(grad)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_stiefel(9, 3, rng)
            g = crandn(rng, 9, 3)
            assert optimality_eta(a, g) >= 0.0

    def test_sampling_lower_bound(self):
        rng = np.random.default_rng(2)
        a = random_stiefel(8, 2, rng)
        g = crandn(rng, 8, 2)
        eta = optimality_eta(a, g)
        base = float(np.real(np.vdot(a.a, g)))
        best = -np.inf
        for _ in range(1000):
            s = random_stiefel(8, 2, rng)
            best = max(best, float(np.real(np.vdot(s.a, g))) - base)
        assert best <= eta + 1e-9


class TestSolve:
    def test_monotone_feasible_trace(self):
        rng = np.random.default_rng(0)
        y, _, _ = noiseless_instance(rng)
        feas = []

        def hook(pt, j):
            feas.append(np.linalg.norm(pt.a.conj().T @ pt.a - np.eye(pt.k_dim)))

        a, tr = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(1), on_iterate=hook)
        assert np.all(np.diff(tr.objective_per_iter) >= -1e-12)
        assert max(feas) < 1e-9
        assert tr.stop_reason in ("eta_tol", "obj_tol", "max_iters")
        assert len(tr.objective_per_iter) == tr.iters_run + 1

    def test_step_gain_at_least_eta(self):
        # Convexity gives Psi(A_{j+1}) - Psi(A_j) >= eta(A_j).
        rng = np.random.default_rng(4)
        y, _, _ = noiseless_instance(rng, m=96, k=3, t=40, theta=0.2)
        _, tr = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(2))
        gains = np.diff(tr.objective_per_iter)
        for j, gain in enumerate(gains):
            assert gain >= tr.eta_per_iter[j] - 1e-9 * max(1.0, tr.objective_per_iter[j])

    def test_rate_bound_weak_form(self):
        rng = np.random.default_rng(5)
        y, _, _ = noiseless_instance(rng)
        _, tr = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(3))
        j = tr.iters_run
        bound = (tr.objective_per_iter[-1] - tr.objective_per_iter[0]) / (j + 1)
        assert tr.eta_per_iter.min() <= bound + 1e-9 * max(1.0, tr.objective_per_iter[-1])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        y, _, _ = noiseless_instance(rng)
        a1, t1 = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(7))
        a2, t2 = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(7))
        assert a1.a.tobytes() == a2.a.tobytes()
        assert np.array_equal(t1.objective_per_iter, t2.objective_per_iter)

    def test_phase_rotated_start_same_trace(self):
        rng = np.random.default_rng(8)
        y, _, _ = noiseless_instance(rng)
        a0 = random_stiefel(50, 3, rng)
        phases = np.exp(2j * np.pi * rng.random(3))
        a0_rot = StiefelPoint(a0.a * phases)
        _, t1 = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(0), a0=a0)
        _, t2 = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(0), a0=a0_rot)
        assert len(t1.objective_per_iter) == len(t2.objective_per_iter)
        assert np.allclose(t1.objective_per_iter, t2.objective_per_iter,
                           rtol=1e-9, atol=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve(np.zeros((4, 2), complex), np.ones(3), SolverOptions(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            solve(np.zeros((4, 8), complex), np.ones(3), SolverOptions(), np.random.default_rng(0))

    def test_heuristic_stationarity_coupling(self):
        # At converged outputs the Riemannian gradient is small on the scale
        # set by eta and the gradient norm.
        rng = np.random.default_rng(9)
        y, _, _ = noiseless_instance(rng, m=128, k=4, t=60, theta=0.1)
        opts = SolverOptions(max_iters=500, eta_tol=1e-9)
        a, tr = solve(y, np.ones(4), opts, np.random.default_rng(1))
        assert tr.stop_reason != "max_iters"
        g = euclid_grad(y, a, np.ones(4))
        rg = riemannian_grad(a, g)
        eta = optimality_eta(a, g)
        assert rg.norm < 10.0 * np.sqrt(max(eta, 1e-300)) * np.linalg.norm(g) ** 0.5

    def test_no_restart_on_ordinary_input(self):
        rng = np.random.default_rng(10)
        y, _, _ = noiseless_instance(rng)
        _, tr = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(1))
        assert tr.restarts == 0

    @pytest.mark.parametrize("columns, opts", [
        ([0, 5], SolverOptions()),
        # A zero gradient has eta = 0, which would pass any eta_tol before a
        # step is tried: the loop must treat it as rank deficient instead.
        ([5, 6], SolverOptions(eta_tol=0.0)),
        ([5, 6], SolverOptions()),
    ])
    def test_null_space_start_restarts_once(self, columns, opts):
        # Start columns inside the null space of a wide block (exact, from
        # its zero columns) give zero gradient columns, so the first step
        # meets a rank-deficient gradient.
        rng = np.random.default_rng(11)
        y = np.zeros((3, 8), dtype=complex)
        y[:, :3] = crandn(rng, 3, 3)
        a0 = StiefelPoint(np.eye(8)[:, columns])
        assert not euclid_grad(y, a0, np.ones(2))[:, 1].any()
        a, tr = solve(y, np.ones(2), opts, np.random.default_rng(2), a0=a0)
        assert tr.restarts == 1
        assert tr.objective_per_iter[0] > 0.0
        assert np.linalg.norm(a.a.conj().T @ a.a - np.eye(2)) < 1e-9

    def test_rank_one_block_is_degenerate(self):
        rng = np.random.default_rng(12)
        y = np.outer(crandn(rng, 6), crandn(rng, 5))
        with pytest.raises(DegenerateGradientError):
            solve(y, np.ones(2), SolverOptions(), np.random.default_rng(3))

    @pytest.mark.parametrize("tau, short", [(np.inf, False), (np.inf, True), (0.0, False)])
    def test_gram_threshold_does_not_change_the_run(self, monkeypatch, tau, short):
        # tau = inf sends every factorization to the SVD, as before the Gram
        # route existed; tau = 0 sends every one with a positive definite Gram
        # to the eigendecomposition.  On short frames under log-distance
        # fading tau = 0 takes gradients with cond ~1e3 and fails the Stiefel
        # check, which is why the default cut exists.
        cfg = SystemConfig()
        if short:
            cfg = SystemConfig(
                t_len=40, channel_model="bernoulli_gaussian", fading_model="log_distance",
                solver=SolverOptions(precondition=True),
            )
        for seed in range(3):
            sc = build_scenario(cfg, np.random.default_rng(seed))
            y = precondition(sc.y_bar, k_users=cfg.k_users) if short else sc.y_bar
            a, tr = solve(y, sc.g_diag, cfg.solver, np.random.default_rng(seed + 10))
            with monkeypatch.context() as mp:
                mp.setattr(manifold, "_GRAM_RTOL", tau)
                a_tau, tr_tau = solve(y, sc.g_diag, cfg.solver, np.random.default_rng(seed + 10))
            assert (tr_tau.iters_run, tr_tau.stop_reason) == (tr.iters_run, tr.stop_reason)
            assert tr_tau.final_objective == pytest.approx(tr.final_objective, rel=1e-10)
            assert np.abs(a_tau.a - a.a).max() < 1e-8


class TestSolveTraceInvariant:
    def test_rejects_decreasing_objective(self):
        with pytest.raises(ValueError, match="ascent"):
            SolveTrace(np.array([1.0, 0.5]), np.array([0.1, 0.1]), "max_iters")

    def test_allows_roundoff_slack(self):
        SolveTrace(np.array([1.0, 1.0 - 1e-13]), np.array([0.1, 0.1]), "max_iters")


class TestResolveAmbiguity:
    def test_construct_and_invert(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(0)
        frame = build_frame(6, 40, c, rng)
        phases = np.exp(2j * np.pi * rng.random(6))
        perm = rng.permutation(6)
        distorted = phases[:, None] * frame.x[perm]  # Sigma @ Pi @ X
        x_hat, res = resolve_ambiguity(distorted, frame.meta, c)
        assert np.abs(x_hat - frame.x).max() < 1e-9
        assert sorted(res.permutation.tolist()) == list(range(6))

    def test_identity_distortion(self):
        c = build_constellation("qpsk")
        frame = build_frame(4, 20, c, np.random.default_rng(1))
        x_hat, res = resolve_ambiguity(frame.x, frame.meta, c)
        assert np.array_equal(res.permutation, np.arange(4))
        assert np.abs(res.phase_corrections - 1.0).max() < 1e-9
        assert np.abs(x_hat - frame.x).max() < 1e-12

    def test_pure_phase_distortion(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(2)
        frame = build_frame(5, 30, c, rng)
        true_phases = np.exp(2j * np.pi * rng.random(5))
        distorted = true_phases[:, None] * frame.x
        x_hat, res = resolve_ambiguity(distorted, frame.meta, c)
        assert np.abs(res.phase_corrections * true_phases - 1.0).max() < 1e-9
        assert np.abs(x_hat - frame.x).max() < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 8),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        extra_t=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, k, constellation, extra_t, seed):
        c = build_constellation(constellation)
        rng = np.random.default_rng(seed)
        frame = build_frame(k, header_length(k, c.size) + 1 + extra_t, c, rng)
        phases = np.exp(2j * np.pi * rng.random(k))
        perm = rng.permutation(k)
        distorted = phases[:, None] * frame.x[perm]
        x_hat, res = resolve_ambiguity(distorted, frame.meta, c)
        assert np.abs(x_hat - frame.x).max() < 1e-9
        assert np.array_equal(res.permutation, np.argsort(perm))
        assert np.abs(res.phase_corrections * phases - 1.0).max() < 1e-9
        assert res.flagged_rows == ()

    def test_zero_reference_flagged(self):
        c = build_constellation("qpsk")
        frame = build_frame(3, 20, c, np.random.default_rng(3))
        broken = frame.x.copy()
        broken[1, 0] = 0.0
        x_hat, res = resolve_ambiguity(broken, frame.meta, c)
        assert res.flagged_rows == (1,)
        assert res.phase_corrections[1] == 1.0 + 0.0j


class TestPrecondition:
    def test_orthonormal_rowspace_unchanged(self):
        rng = np.random.default_rng(0)
        u, _, vh = np.linalg.svd(crandn(rng, 10, 6), full_matrices=False)
        y = u @ vh
        u_k, vh_k = precondition(y, 6)
        assert np.abs(u_k @ vh_k - y).max() < 1e-10

    def test_output_singular_values_one(self):
        rng = np.random.default_rng(1)
        y = crandn(rng, 12, 7)
        u, vh = precondition(y, 7)
        s = np.linalg.svd(u @ vh, compute_uv=False)
        assert np.abs(s - 1.0).max() < 1e-10

    def test_top_k_truncation(self):
        rng = np.random.default_rng(2)
        y = crandn(rng, 12, 7)
        u, vh = precondition(y, k_users=3)
        s = np.linalg.svd(u @ vh, compute_uv=False)
        assert np.abs(s[:3] - 1.0).max() < 1e-10
        assert s[3:].max() < 1e-10

    def test_gram_route_matches_svd(self):
        rng = np.random.default_rng(4)
        h = crandn(rng, 64, 4)
        y = h @ crandn(rng, 4, 20) + 1e-2 * crandn(rng, 64, 20)
        assert manifold._gram_polar(y, 4) is not None
        u, _, vh = np.linalg.svd(y, full_matrices=False)
        u_k, vh_k = precondition(y, k_users=4)
        assert np.abs(u_k @ vh_k - u[:, :4] @ vh[:4]).max() < 1e-12

    def test_ill_conditioned_block_takes_svd(self):
        # The 4th singular value clears 1e-10 of the largest but not the
        # Gram route's cut, so the SVD route answers, bit for bit.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(crandn(rng, 30, 6))
        w, _ = np.linalg.qr(crandn(rng, 6, 6))
        y = (q * np.array([1.0, 0.5, 0.2, 1e-4, 1e-6, 1e-7])) @ w.conj().T
        assert manifold._gram_polar(y, 4) is None
        u, _, vh = np.linalg.svd(y, full_matrices=False)
        u_k, vh_k = precondition(y, k_users=4)
        assert np.array_equal(u_k @ vh_k, u[:, :4] @ vh[:4])

    def test_kth_direction_below_1e_10_rejected(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(crandn(rng, 30, 6))
        w, _ = np.linalg.qr(crandn(rng, 6, 6))
        y = (q * np.array([1.0, 0.5, 0.2, 1e-11, 1e-12, 1e-13])) @ w.conj().T
        with pytest.raises(RankDeficientError, match="usable directions"):
            precondition(y, k_users=4)
        u, vh = precondition(y, k_users=3)
        assert np.linalg.matrix_rank(u @ vh) == 3

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(3)
        y = np.outer(crandn(rng, 8), crandn(rng, 5))  # rank one
        with pytest.raises(RankDeficientError):
            precondition(y, k_users=2)
        with pytest.raises(RankDeficientError):
            precondition(np.zeros((4, 3), complex), 3)
        with pytest.raises(RankDeficientError, match="usable directions"):
            precondition(crandn(rng, 8, 3), 5)  # more users than columns

    @pytest.mark.parametrize("gram_route", [True, False])
    def test_factors_orthonormal_on_both_routes(self, gram_route):
        # A 4th singular value of 1e-4 of the largest fails the Gram route's
        # cut, so the SVD answers.
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(crandn(rng, 30, 6))
        w, _ = np.linalg.qr(crandn(rng, 6, 6))
        fourth = 0.1 if gram_route else 1e-4
        y = (q * np.array([1.0, 0.5, 0.2, fourth, 1e-6, 1e-7])) @ w.conj().T
        assert (manifold._gram_polar(y, 4) is not None) == gram_route
        u, vh = precondition(y, k_users=4)
        assert u.shape == (30, 4) and vh.shape == (4, 6)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(4)) < 1e-10

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_rejected(self, k):
        y = crandn(np.random.default_rng(7), 8, 5)
        with pytest.raises(ValueError, match="k_users must be at least 1") as info:
            precondition(y, k)
        assert not isinstance(info.value, RankDeficientError)


class TestPostprocess:
    def test_exact_input_recovers_frame(self):
        # Channel with exactly orthonormal (scaled) columns makes the
        # least-squares reprojection exact up to the removed row scale.
        c = build_constellation("qpsk")
        rng = np.random.default_rng(0)
        frame = build_frame(4, 30, c, rng)
        h = 2.5 * random_stiefel(64, 4, rng).a
        y = h @ frame.x
        y_pre = precondition(y, k_users=4)
        u, _, vh = np.linalg.svd(frame.x, full_matrices=False)
        x_pre = u @ vh  # orthonormal-row factor of the true frame
        x_hat = postprocess(y_pre, x_pre, y)
        assert evm(x_hat, frame.x) < 1e-6

    def test_orthonormal_d_reduces_to_adjoint(self):
        rng = np.random.default_rng(1)
        u = random_stiefel(10, 3, rng).a
        x_pre = random_stiefel(8, 3, rng).a.conj().T
        y_pre = u @ x_pre  # makes D = y_pre x_pre^H = u exactly
        y = crandn(rng, 10, 8)
        x_hat = postprocess(y_pre, x_pre, y)
        direct = u.conj().T @ y
        direct = direct / np.linalg.norm(direct, axis=1, keepdims=True)
        assert np.abs(x_hat - direct).max() < 1e-10

    def test_scalar_case_by_hand(self):
        y_pre = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        x_pre = np.array([[1.0]], dtype=complex)
        y = np.array([[3.0, 0.0], [0.0, 4.0]], dtype=complex)
        # D = y_pre, least squares gives [3, 4]/sqrt(2), normalized to unit norm.
        out = postprocess(y_pre, x_pre, y)
        assert np.allclose(out, np.array([[0.6, 0.8]]))

    def test_singular_reprojection_rejected(self):
        with pytest.raises(RankDeficientError):
            postprocess(np.zeros((4, 3), complex), np.ones((2, 3), complex), np.ones((4, 3), complex))

    def test_wide_reprojection_rejected(self):
        # Two rows for three users: D is 2 x 3 and cannot have full column
        # rank, although both of its singular values are far from zero.
        rng = np.random.default_rng(0)
        y_pre, x_pre = crandn(rng, 2, 6), crandn(rng, 3, 6)
        with pytest.raises(RankDeficientError, match="reprojection matrix D is rank deficient"):
            postprocess(y_pre, x_pre, crandn(rng, 2, 6))


class TestFactoredBlock:
    """``precondition``'s pair (u, vh) against the dense block u @ vh it stands for."""

    def test_kernels_match_dense_block(self):
        rng = np.random.default_rng(11)
        y = crandn(rng, 64, 4) @ crandn(rng, 4, 40) + 1e-2 * crandn(rng, 64, 40)
        pair = precondition(y, k_users=4)
        dense = pair[0] @ pair[1]
        a = random_stiefel(40, 4, rng)
        g = np.array([1.0, 0.3, 2.0, 0.7])

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        for p in (3, 4):
            assert objective(pair, a, g, p) == pytest.approx(objective(dense, a, g, p), rel=1e-12)
            assert close(euclid_grad(pair, a, g, p), euclid_grad(dense, a, g, p))
            assert close(iterate(a, pair, g, p).a, iterate(a, dense, g, p).a)
        x_pre = random_stiefel(40, 4, rng).a.conj().T
        assert close(postprocess(pair, x_pre, y), postprocess(dense, x_pre, y))

    def test_solve_and_postprocess_never_form_the_block(self):
        rng = np.random.default_rng(12)
        y = crandn(rng, 512, 4) @ crandn(rng, 4, 200) + 1e-2 * crandn(rng, 512, 200)
        pair = precondition(y, k_users=4)
        tracemalloc.start()
        try:
            a, _ = solve(pair, np.ones(4), SolverOptions(max_iters=5), rng)
            postprocess(pair, a.a.conj().T, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes / 4  # u @ vh would take y.nbytes

    def test_preconditioned_detect_keeps_its_iterations(self):
        # (iters_run, stop_reason) as the dense preconditioned block gave them.
        cfg = SystemConfig(
            k_users=4, n_h=64, t_len=40, channel_model="bernoulli_gaussian",
            fading_model="log_distance", solver=SolverOptions(precondition=True),
        )
        c = build_constellation(cfg.constellation)
        got = []
        for seed in range(6):
            sc = build_scenario(cfg, np.random.default_rng(seed))
            res = detect(sc.y_bar, sc.g_diag, sc.frame.meta, c, cfg.solver,
                         np.random.default_rng(seed + 10))
            got.append((res.trace.iters_run, res.trace.stop_reason))
        assert got == [(n, "eta_tol") for n in (12, 28, 10, 8, 7, 10)]


class TestDemodulate:
    def test_identity_on_exact_points(self):
        c = build_constellation("qam16")
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 16, size=(3, 20))
        x = c.points[idx] / np.sqrt(20)
        out = demodulate(x, c)
        assert np.array_equal(out.indices, idx)

    def test_identity_under_small_perturbation(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 4, size=(2, 30))
        dmin = np.sqrt(2.0)  # QPSK minimum distance
        noise = crandn(rng, 2, 30)
        noise = noise / np.abs(noise) * (0.49 * dmin)
        x = (c.points[idx] + noise) / np.sqrt(30)
        out = demodulate(x, c)
        assert np.array_equal(out.indices, idx)

    def test_exhaustive_nearest_oracle(self):
        c = build_constellation("qam16")
        rng = np.random.default_rng(2)
        v = 2.0 * crandn(rng, 4, 25)
        out = demodulate(v / np.sqrt(25), c)
        for i in range(4):
            for t in range(25):
                dists = [abs(v[i, t] - p) for p in c.points]
                assert out.indices[i, t] == int(np.argmin(dists))


class TestDetectEndToEnd:
    def test_noiseless_recovery(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(0)
        frame = build_frame(4, 80, c, rng)
        chan = bernoulli_gaussian_channel(128, 4, 0.15, rng)
        y_bar = synthesize_received(chan, frame.x, np.ones(4), np.ones(4), 0.0, rng)
        res = detect(y_bar, np.ones(4), frame.meta, c, SolverOptions(), rng)
        start = frame.payload_start
        assert np.array_equal(res.symbol_indices[:, start:], frame.symbol_indices[:, start:])
        assert evm(res.x_hat, frame.x) < 0.1

    def test_preconditioned_short_frame(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(4)
        frame = build_frame(4, 24, c, rng)
        chan = bernoulli_gaussian_channel(128, 4, 0.1, rng)
        sigma = 4 / (1000 * 24)
        y_bar = synthesize_received(chan, frame.x, np.ones(4), np.ones(4), sigma, rng)
        res_pre = detect(y_bar, np.ones(4), frame.meta, c,
                         SolverOptions(precondition=True), np.random.default_rng(1))
        assert evm(res_pre.x_hat, frame.x) < 0.1


class TestRiemannianGdBaseline:
    def test_matches_polar_solver_on_noiseless_instance(self):
        rng = np.random.default_rng(9)
        x = random_stiefel(60, 4, rng).a.conj().T
        chan = bernoulli_gaussian_channel(128, 4, 0.15, rng)
        y = chan @ x
        opts = SolverOptions(max_iters=500, eta_tol=1e-7)
        _, tr_fw = solve(y, np.ones(4), opts, np.random.default_rng(3))
        _, tr_gd = riemannian_gd_baseline(y, np.ones(4), opts, np.random.default_rng(3))
        rel = abs(tr_fw.final_objective - tr_gd.final_objective) / tr_fw.final_objective
        assert rel < 0.01
        assert np.all(np.diff(tr_gd.objective_per_iter) > 0)

    def test_needs_more_evaluations(self):
        # Same tolerance, same start: the line-searched gradient method
        # spends strictly more objective/gradient evaluations.
        rng = np.random.default_rng(2)
        frame = build_frame(8, 240, build_constellation("qpsk"), rng)
        chan = bernoulli_gaussian_channel(256, 8, 0.1, rng)
        sigma = 8 / (1000 * 240)
        y_bar = synthesize_received(chan, frame.x, np.ones(8), np.ones(8), sigma, rng)
        opts = SolverOptions(max_iters=500, eta_tol=1e-7)
        _, tr_fw = solve(y_bar, np.ones(8), opts, np.random.default_rng(1))
        _, tr_gd = riemannian_gd_baseline(y_bar, np.ones(8), opts, np.random.default_rng(1))
        assert tr_gd.n_evals > tr_fw.n_evals


class TestPilotZf:
    def test_soft_threshold_closed_form(self):
        assert _soft_threshold(np.array([3.0 + 0j]), 1.0)[0] == pytest.approx(2.0)
        assert _soft_threshold(np.array([-3.0 + 0j]), 1.0)[0] == pytest.approx(-2.0)
        z = _soft_threshold(np.array([3.0j]), 1.0)[0]
        assert z == pytest.approx(2.0j)
        assert _soft_threshold(np.array([0.5 + 0j]), 1.0)[0] == 0.0

    def test_unregularized_exact_with_orthogonal_pilots(self):
        rng = np.random.default_rng(0)
        k, t_pilot, m = 4, 8, 64
        pilots = random_stiefel(t_pilot, k, rng).a.conj().T  # orthonormal rows
        chan = bernoulli_gaussian_channel(m, k, 0.2, rng)
        g = np.ones(k)
        y_train = chan @ pilots
        x = random_stiefel(30, k, rng).a.conj().T
        y_data = chan @ x
        x_hat = pilot_zf_baseline(y_train, pilots, y_data, g, lam=0.0)
        assert evm(x_hat, x) < 1e-8

    def test_zeroed_user_named(self):
        # With orthonormal pilot rows the estimate is the soft threshold of
        # Y X^H at lam: a weak user's whole column falls below it.
        rng = np.random.default_rng(5)
        k, m = 3, 16
        pilots = random_stiefel(8, k, rng).a.conj().T
        h = crandn(rng, m, k) * np.array([1.0, 1.0, 1e-3])
        with pytest.raises(RankDeficientError, match=r"rank deficient; .* users \[2\] are all zero"):
            pilot_zf_baseline(h @ pilots, pilots, h @ crandn(rng, k, 30), np.ones(k), lam=0.5)

    def test_underdetermined_needs_regularization(self):
        # Six pilots for eight users: unregularized least squares cannot
        # produce a full-rank detector, the l1-regularized pass can.
        c = build_constellation("qpsk")
        rng = np.random.default_rng(1)
        k, t_pilot, m, t_len = 8, 6, 256, 240
        frame = build_frame(k, t_len, c, rng)
        chan = bernoulli_gaussian_channel(m, k, 0.1, rng)
        g = np.ones(k)
        sigma = k / (1.0 * t_len)  # 0 dB
        y_bar = synthesize_received(chan, frame.x, g, g, sigma, rng)
        pilots = c.points[rng.integers(0, 4, size=(k, t_pilot))]
        noise = crandn(rng, m, t_pilot) * np.sqrt(sigma)
        y_train = chan @ pilots + noise
        with pytest.raises(RankDeficientError):
            pilot_zf_baseline(y_train, pilots, y_bar, g, lam=0.0)
        x_hat = pilot_zf_baseline(y_train, pilots, y_bar, g, lam=2.0)
        assert np.isfinite(evm(x_hat, frame.x))

    def test_fewer_antennas_than_users_rejected(self):
        # M = 4 antennas for K = 8 users: the 4 x 8 zero-forcing matrix has
        # four healthy singular values but not full column rank.
        rng = np.random.default_rng(2)
        k, m = 8, 4
        pilots = random_stiefel(16, k, rng).a.conj().T
        h = crandn(rng, m, k)
        with pytest.raises(RankDeficientError, match="zero-forcing matrix is rank deficient"):
            pilot_zf_baseline(h @ pilots, pilots, h @ crandn(rng, k, 30), np.ones(k), lam=0.0)


class TestSharedAscentLoop:
    @pytest.mark.parametrize("p", [3, 4])
    def test_trace_matches_public_kernels(self, p):
        # The loop and the public objective / gradient / eta share one kernel
        # and one factorization route: the traced objective and eta are
        # bit-identical to objective() and optimality_eta() at every iterate.
        rng = np.random.default_rng(11)
        y, _, _ = noiseless_instance(rng, m=48, k=3, t=30, theta=0.2)
        y = y + 1e-3 * crandn(rng, *y.shape)
        g = rng.uniform(0.5, 2.0, 3)
        points = []
        _, tr = solve(y, g, SolverOptions(), np.random.default_rng(4),
                      on_iterate=lambda a, j: points.append(a), p_exponent=p)
        assert len(points) == tr.iters_run + 1 >= 3
        for j, a in enumerate(points):
            assert objective(y, a, g, p) == tr.objective_per_iter[j]
            grad = euclid_grad(y, a, g, p)
            assert optimality_eta(a, grad) == tr.eta_per_iter[j]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        k=st.integers(1, 4),
        extra_t=st.sampled_from([0, 3, 12]),
        constellation=st.sampled_from(["qpsk", "16qam"]),
        fading=st.sampled_from(["identity", "log_distance"]),
        precondition_on=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solver_properties_on_edge_shapes(
        self, k, extra_t, constellation, fading, precondition_on, seed
    ):
        # T = header length + 2 is the shortest frame a config accepts; K = 1
        # has an empty header.
        t_len = max(header_length(k, build_constellation(constellation).size) + 2, k) + extra_t
        cfg = SystemConfig(
            k_users=k, t_len=t_len, n_h=16, snr_db=20.0, channel_model="bernoulli_gaussian",
            theta=0.3, constellation=constellation, fading_model=fading, t_pilot=1,
            base_seed=seed,
        )
        rng = np.random.default_rng(seed)
        sc = build_scenario(cfg, rng)
        y = precondition(sc.y_bar, k_users=k) if precondition_on else sc.y_bar
        opts = SolverOptions(max_iters=60)
        for solver in (solve, riemannian_gd_baseline):
            a, tr = solver(y, sc.g_diag, opts, np.random.default_rng(seed + 1))
            assert np.all(np.diff(tr.objective_per_iter) >= -MONOTONE_SLACK)
            assert tr.stop_reason in ("eta_tol", "obj_tol", "max_iters")
            assert np.all(tr.eta_per_iter >= 0.0)
            assert np.linalg.norm(a.a.conj().T @ a.a - np.eye(k)) < 1e-9
            assert tr.n_evals >= tr.iters_run + 1
