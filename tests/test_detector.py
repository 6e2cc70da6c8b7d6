import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from blindmimo import (
    AmbiguityResolution,
    DetectionResult,
    RankDeficientError,
    SolverOptions,
    SolveTrace,
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
    run_sweep,
    solve,
    synthesize_received,
)
from blindmimo import detector, manifold
from blindmimo.detector import _soft_threshold
from blindmimo.signal import header_length


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def noiseless_instance(rng, m=64, k=3, t=50, theta=0.15):
    """Orthonormal-row data through a sparse channel, no noise."""
    x = random_stiefel(t, k, rng).conj().T
    chan = bernoulli_gaussian_channel(m, k, theta, rng)
    return chan @ x, chan, x


def spy_evaluate(monkeypatch):
    """Make ``detector._evaluate`` append each point it evaluates to the list returned."""
    evaluate, seen = detector._evaluate, []
    monkeypatch.setattr(detector, "_evaluate",
                        lambda f, x, *rest, **kw: seen.append(x) or evaluate(f, x, *rest, **kw))
    return seen


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
        assert objective(y @ q, q.conj().T @ a, g_diag) == pytest.approx(
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
            fd = (objective(y, a + h * delta, g_diag, p)
                  - objective(y, a - h * delta, g_diag, p)) / (2 * h)
            an = float(np.real(np.vdot(grad, delta)))
            assert abs(fd - an) / max(abs(fd), 1e-12) < 1e-4

    @pytest.mark.parametrize("p", [3, 4])
    def test_bit_identical_to_the_power_formula(self, p):
        # The gradient forms |W|^(p-2) by products, not by a power; records
        # stay byte-identical only while the two agree bit for bit.
        rng = np.random.default_rng(40 + p)
        y = crandn(rng, 30, 12)
        a = random_stiefel(12, 4, rng)
        g_diag = rng.uniform(0.5, 2.0, 4)
        isg = 1.0 / np.sqrt(g_diag)
        w = (y @ a) * isg[np.newaxis, :]
        ref = p * (y.conj().T @ (np.abs(w) ** (p - 2) * w)) * isg[np.newaxis, :]
        assert np.array_equal(euclid_grad(y, a, g_diag, p), ref)

    @pytest.mark.parametrize("p", [3, 4])
    def test_pair_bit_identical_to_the_adjoint_product(self, p):
        # The gradient reads the pair through its transposes and conjugates
        # twice; that must equal the adjoint's factors applied bit for bit.
        rng = np.random.default_rng(50 + p)
        u, vh = precondition(crandn(rng, 40, 24), 4)
        a = random_stiefel(24, 4, rng)
        g_diag = rng.uniform(0.5, 2.0, 4)
        isg = 1.0 / np.sqrt(g_diag)
        w = (u @ (vh @ a)) * isg
        f = np.abs(w) ** (p - 2) * w
        ref = p * (vh.conj().T @ (u.conj().T @ f)) * isg
        assert np.array_equal(euclid_grad((u, vh), a, g_diag, p), ref)

    @pytest.mark.parametrize("p", [2, 5])
    def test_exponents_without_a_gradient_form_rejected(self, p):
        # The gradient forms |W|^(p-2) for p = 3 and 4 only; at p = 2 or 5 it
        # would disagree with the objective's finite differences.
        rng = np.random.default_rng(60)
        y = crandn(rng, 12, 6)
        a = random_stiefel(6, 2, rng)
        for call in (objective, euclid_grad):
            with pytest.raises(ValueError, match="p_exponent must be 3 or 4"):
                call(y, a, np.ones(2), p)
        with pytest.raises(ValueError, match="p_exponent must be 3 or 4"):
            iterate(a, y, np.ones(2), p)

    def test_column_phase_invariance(self):
        rng = np.random.default_rng(5)
        y = crandn(rng, 15, 8)
        a = random_stiefel(8, 3, rng)
        g_diag = np.ones(3)
        phases = np.exp(2j * np.pi * rng.random(3))
        assert objective(y, a * phases, g_diag) == pytest.approx(
            objective(y, a, g_diag), rel=1e-12
        )
        grad = euclid_grad(y, a, g_diag)
        for k in range(3):
            # moving along the phase orbit of one column changes nothing
            d = float(np.real(np.vdot(grad[:, k], 1j * a[:, k])))
            assert abs(d) < 1e-8 * np.linalg.norm(grad[:, k])


class TestIterate:
    def test_fixed_point(self):
        # Diagonal-positive block: A = [I; 0] is stationary by construction.
        t, k = 6, 2
        y = np.zeros((k, t), dtype=complex)
        y[0, 0], y[1, 1] = 1.5, 0.7
        a = np.eye(t, k)
        nxt = iterate(a, y, np.ones(k))
        assert np.abs(nxt - a).max() < 1e-9

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
            vals = [objective(y, (1 - u) * a + u * s, g_diag) for u in grid]
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
        base = float(np.real(np.vdot(a, g)))
        best = -np.inf
        for _ in range(1000):
            s = random_stiefel(8, 2, rng)
            best = max(best, float(np.real(np.vdot(s, g))) - base)
        assert best <= eta + 1e-9


class TestSolve:
    def test_monotone_feasible_trace(self):
        # On a dense block the public iterate, replayed from solve's start,
        # visits solve's iterates bit for bit: the same kernel and the same
        # polar route.
        rng = np.random.default_rng(0)
        y, _, _ = noiseless_instance(rng)
        a0 = random_stiefel(50, 3, np.random.default_rng(1))  # the start solve draws from rng 1
        a, tr = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(1), a0=a0)
        points = [a0]
        for _ in range(tr.iters_run):
            points.append(iterate(points[-1], y, np.ones(3)))
        assert [objective(y, pt, np.ones(3)) for pt in points] == tr.objective_per_iter.tolist()
        assert points[-1].tobytes() == a.tobytes() and tr.restarts == 0
        assert np.all(np.diff(tr.objective_per_iter) > 0)
        assert max(np.linalg.norm(pt.conj().T @ pt - np.eye(3)) for pt in points) < 1e-9
        assert tr.stop_reason in ("eta_tol", "max_iters", "no_ascent")
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
        assert a1.tobytes() == a2.tobytes()
        assert np.array_equal(t1.objective_per_iter, t2.objective_per_iter)

    def test_phase_rotated_start_same_trace(self):
        rng = np.random.default_rng(8)
        y, _, _ = noiseless_instance(rng)
        a0 = random_stiefel(50, 3, rng)
        phases = np.exp(2j * np.pi * rng.random(3))
        a0_rot = a0 * phases
        _, t1 = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(0), a0=a0)
        _, t2 = solve(y, np.ones(3), SolverOptions(), np.random.default_rng(0), a0=a0_rot)
        assert len(t1.objective_per_iter) == len(t2.objective_per_iter)
        assert np.allclose(t1.objective_per_iter, t2.objective_per_iter,
                           rtol=1e-9, atol=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve(np.zeros((4, 2), complex), np.ones(3), SolverOptions(), np.random.default_rng(0))
        # A noiseless trial with an all-zero channel draws this block, so it
        # is the per-trial failure that run_sweep records.
        with pytest.raises(RankDeficientError, match="received block is identically zero"):
            solve(np.zeros((4, 8), complex), np.ones(3), SolverOptions(), np.random.default_rng(0))

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("solver", [solve, riemannian_gd_baseline], ids=["solve", "rgd"])
    def test_non_finite_block_rejected_by_name(self, solver, entry):
        # A NaN entry was reported as an all-zero block, and an inf entry
        # reached the SVD, which did not converge.
        y = crandn(np.random.default_rng(13), 32, 20)
        y[5, 7] = entry
        with pytest.raises(ValueError, match="received block must be finite"):
            solver(y, np.ones(4), SolverOptions(), np.random.default_rng(0))

    @staticmethod
    def _check_large_block(solver, scale):
        # Each scale solves, warning-free, from the reference's start, since
        # the loop runs normalized; the trace is in the caller's units, inf
        # past the float range.  solve also reaches the reference's point;
        # rgd's first step, 1 in the caller's units, is not scale-free.
        y = crandn(np.random.default_rng(13), 32, 20)
        a_ref, trace_ref = solver(y, np.ones(4), SolverOptions(max_iters=30), np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, trace = solver(scale * y, np.ones(4), SolverOptions(max_iters=30), np.random.default_rng(0))
        assert np.linalg.norm(a.conj().T @ a - np.eye(4)) < 1e-9 and trace.iters_run >= 1
        if scale < np.cbrt(np.finfo(np.float64).max):  # the cubed objective stays finite
            assert np.allclose(trace.objective_per_iter[0] / scale**3, trace_ref.objective_per_iter[0], rtol=1e-9)
        else:
            assert np.all(trace.objective_per_iter == np.inf)
        if solver is solve:
            assert np.abs(a - a_ref).max() < 1e-9 and trace.iters_run == trace_ref.iters_run

    @pytest.mark.parametrize("solver", [solve, riemannian_gd_baseline], ids=["solve", "rgd"])
    def test_large_block_below_the_limit_solves(self, solver):
        # 1e60 was below the norm limit the solvers once had (3.9e102 for
        # p = 3).
        self._check_large_block(solver, 1e60)

    @pytest.mark.parametrize("scale", [1e120, 1e200])
    @pytest.mark.parametrize("solver", [solve, riemannian_gd_baseline], ids=["solve", "rgd"])
    def test_huge_finite_block_rejected_by_scale(self, solver, scale):
        # The name dates from the norm limit that once rejected these blocks;
        # none is rejected now.  Above that limit the cubed objective
        # overflowed, and at 1e200 the norm itself.
        self._check_large_block(solver, scale)

    @pytest.mark.parametrize("a0, message", [
        (np.eye(51, 3), r"a0 must be a 50 x 3 matrix, got shape \(51, 3\)"),
        (np.eye(50, 2), r"a0 must be a 50 x 3 matrix, got shape \(50, 2\)"),
        (np.ones(50), r"a0 must be a 50 x 3 matrix, got shape \(50,\)"),
        (np.eye(3, 50), r"a0 must be a 50 x 3 matrix, got shape \(3, 50\)"),
        (np.ones((50, 3)) / np.sqrt(50), "a0: columns not orthonormal"),
    ], ids=["wrong_t", "wrong_k", "one_d", "k_above_t", "not_orthonormal"])
    def test_bad_start_rejected_before_any_evaluation(self, monkeypatch, a0, message):
        y, _, _ = noiseless_instance(np.random.default_rng(12))
        calls = []
        monkeypatch.setattr(detector, "_evaluate", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=message):
            solve(y, np.ones(3), SolverOptions(), np.random.default_rng(0), a0=a0)
        assert calls == []

    @pytest.mark.parametrize("layout", ["real", "fortran", "read_only"])
    def test_start_taken_as_a_complex_c_ordered_copy(self, layout, monkeypatch):
        # solve iterates a complex128 C-ordered copy of a0: the caller's
        # array is left as it was, and the trace's bytes are those of a
        # solve started from that copy.  The spy sees each evaluated point.
        rng = np.random.default_rng(14)
        y, _, _ = noiseless_instance(rng)
        a0 = {"real": np.linalg.qr(rng.standard_normal((50, 3)))[0],
              "fortran": np.asfortranarray(random_stiefel(50, 3, rng)),
              "read_only": random_stiefel(50, 3, rng)}[layout]
        a0.setflags(write=layout != "read_only")
        before = (a0.dtype, a0.flags.f_contiguous, a0.flags.writeable, a0.tobytes())
        starts = spy_evaluate(monkeypatch)
        runs = [solve(y, np.ones(3), SolverOptions(), np.random.default_rng(0), a0=start)
                for start in (a0, np.array(a0, dtype=np.complex128, order="C"))]
        monkeypatch.undo()
        assert (a0.dtype, a0.flags.f_contiguous, a0.flags.writeable, a0.tobytes()) == before
        assert starts[0].dtype == np.complex128 and starts[0].flags.c_contiguous
        assert not np.shares_memory(starts[0], a0)
        (a, tr), (a_ref, tr_ref) = runs
        assert a.tobytes() == a_ref.tobytes()
        assert tr.objective_per_iter.tobytes() == tr_ref.objective_per_iter.tobytes()
        assert tr.eta_per_iter.tobytes() == tr_ref.eta_per_iter.tobytes()
        assert (tr.stop_reason, tr.restarts) == (tr_ref.stop_reason, 0)

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
        assert np.linalg.norm(rg) < 10.0 * np.sqrt(max(eta, 1e-300)) * np.linalg.norm(g) ** 0.5

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
        a0 = np.eye(8)[:, columns]
        assert not euclid_grad(y, a0, np.ones(2))[:, 1].any()
        a, tr = solve(y, np.ones(2), opts, np.random.default_rng(2), a0=a0)
        assert tr.restarts == 1
        assert tr.objective_per_iter[0] > 0.0
        assert np.linalg.norm(a.conj().T @ a - np.eye(2)) < 1e-9

    def test_drift_off_the_manifold_is_fatal(self, monkeypatch):
        # A polar factor 1e-8 off the manifold fails the check on the first
        # drifted iterate.  The plain ValueError neither restarts the solve
        # (a RankDeficientError would) nor becomes a per-trial error record.
        real_polar = detector._polar
        drifted = []

        def drifting_polar(m):
            s, factor = real_polar(m)

            def factor_off_manifold():
                drifted.append(1)
                return factor() * (1.0 + 1e-8)

            return s, factor_off_manifold

        monkeypatch.setattr(detector, "_polar", drifting_polar)
        y, _, _ = noiseless_instance(np.random.default_rng(14))
        with pytest.raises(ValueError, match="not orthonormal") as info:
            solve(y, np.ones(3), SolverOptions(), np.random.default_rng(1))
        assert type(info.value) is ValueError
        assert len(drifted) == 1
        cfg = SystemConfig(k_users=4, t_len=60, n_h=32, channel_model="bernoulli_gaussian", trials=1)
        with pytest.raises(ValueError, match="not orthonormal"):
            list(run_sweep(cfg, "snr_db", [20.0], ("l3",)))

    def test_rank_one_block_is_degenerate(self):
        rng = np.random.default_rng(12)
        y = np.outer(crandn(rng, 6), crandn(rng, 5))
        with pytest.raises(RankDeficientError, match="after one restart"):
            solve(y, np.ones(2), SolverOptions(), np.random.default_rng(3))

    @pytest.mark.parametrize("tau, short", [(np.inf, False), (np.inf, True), (0.0, False)])
    def test_gram_threshold_does_not_change_the_run(self, monkeypatch, tau, short):
        # tau = inf sends every factorization to the SVD, as before the Gram
        # route existed; tau = 0 sends every one with a positive definite Gram
        # to the eigendecomposition.  On short frames under log-distance
        # fading tau = 0 takes gradients with cond ~1e3 and fails the Stiefel
        # check, which is why the default cut exists.  The short frames are
        # unpreconditioned: on the pair, solve factors only K x K matrices,
        # which always take the SVD, so only a dense block sends T x K
        # gradients through the cut.  At T = 40 every gradient passes it
        # under identity fading and fails it under log-distance fading.
        cfgs = [SystemConfig()]
        if short:
            cfgs = [SystemConfig(t_len=40, channel_model="bernoulli_gaussian", fading_model=fading)
                    for fading in ("identity", "log_distance")]
        for cfg, seed in itertools.product(cfgs, range(3)):
            sc = build_scenario(cfg, np.random.default_rng(seed))
            a, tr = solve(sc.y_bar, sc.g_diag, cfg.solver, np.random.default_rng(seed + 10))
            with monkeypatch.context() as mp:
                mp.setattr(manifold, "_GRAM_RTOL", tau)
                a_tau, tr_tau = solve(sc.y_bar, sc.g_diag, cfg.solver, np.random.default_rng(seed + 10))
            assert (tr_tau.iters_run, tr_tau.stop_reason) == (tr.iters_run, tr.stop_reason)
            assert tr_tau.final_objective == pytest.approx(tr.final_objective, rel=1e-10)
            assert np.abs(a_tau - a).max() < 1e-8


class TestSolverOptions:
    @pytest.mark.parametrize("over, message", [
        (dict(max_iters=2.5), "max_iters must be an integer"),
        (dict(max_iters=60.0), "max_iters must be an integer"),
        (dict(max_iters=0), "max_iters must be an integer of at least 1"),
        (dict(eta_tol=np.nan), "eta_tol must be finite and nonnegative"),
        (dict(eta_tol=np.inf), "eta_tol must be finite and nonnegative"),
        (dict(eta_tol=-1e-6), "eta_tol must be finite and nonnegative"),
        (dict(eta_tol=-np.inf), "eta_tol must be finite and nonnegative"),
        (dict(precondition=1), "precondition must be true or false"),
        (dict(eta_tol="1e-6"), "eta_tol must be finite and nonnegative"),
        (dict(precondition="false"), "precondition must be true or false"),
        (dict(max_iters=True), "max_iters must be an integer"),
        (dict(eta_tol=False), "eta_tol must be finite and nonnegative"),
    ])
    def test_fields_that_cannot_work_rejected(self, over, message):
        # A float max_iters would fail later in the loop's range, a NaN
        # eta_tol would silently switch the eta stop off, and the string
        # "false" would switch preconditioning on.
        with pytest.raises(ValueError, match=message):
            SolverOptions(**over)

    def test_numpy_integer_and_zero_tolerances_accepted(self):
        opts = SolverOptions(max_iters=np.int64(3), eta_tol=0.0)
        y, _, _ = noiseless_instance(np.random.default_rng(3))
        _, tr = solve(y, np.ones(3), opts, np.random.default_rng(1))
        assert tr.iters_run == 3 and tr.stop_reason == "max_iters"


class TestSolveTraceInvariant:
    def test_rejects_decreasing_objective(self):
        # No slack: the solvers record only an objective that exceeds the last.
        for drop in (0.5, 1e-13):
            with pytest.raises(ValueError, match="ascent"):
                SolveTrace(np.array([1.0, 1.0 - drop]), np.array([0.1, 0.1]), "max_iters")


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


class TestAssign:
    """``_assign`` against scipy's ``linear_sum_assignment``, a test-only oracle."""

    @staticmethod
    def oracle(cost):
        rows, cols = linear_sum_assignment(cost)
        perm = np.empty(cost.shape[0], dtype=np.int64)
        perm[cols] = rows
        return perm

    @staticmethod
    def total(cost, perm):
        return cost[perm, np.arange(cost.shape[0])].sum()

    def unique_optimum(self, cost):
        # The optimum is unique iff forbidding any one of its pairs raises the cost:
        # a second optimal matching avoids at least one of them.
        perm = self.oracle(cost)
        best = self.total(cost, perm)
        for col, row in enumerate(perm):
            barred = cost.copy()
            barred[row, col] = 1e9
            if self.total(barred, self.oracle(barred)) == best:
                return False
        return True

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    def test_matches_the_oracle(self, k, seed, ties):
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 4, (k, k)).astype(float) if ties else rng.exponential(size=(k, k))
        perm = detector._assign(cost)
        assert perm.dtype == np.int64
        assert sorted(perm.tolist()) == list(range(k))
        assert self.total(cost, perm) == self.total(cost, self.oracle(cost))
        if k == 1 or self.unique_optimum(cost):
            assert np.array_equal(perm, self.oracle(cost))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        cost = np.random.default_rng(5).random((4, 4))
        cost[2, 1] = bad
        with pytest.raises(ValueError, match="cost matrix"):
            detector._assign(cost)


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

    def test_gram_route_matches_svd(self, linalg_calls):
        rng = np.random.default_rng(4)
        h = crandn(rng, 64, 4)
        y = h @ crandn(rng, 4, 20) + 1e-2 * crandn(rng, 64, 20)
        u, _, vh = np.linalg.svd(y, full_matrices=False)
        u_k, vh_k = precondition(y, k_users=4)
        assert linalg_calls == ["_eigh"]
        assert np.abs(u_k @ vh_k - u[:, :4] @ vh[:4]).max() < 1e-12

    def test_ill_conditioned_block_takes_svd(self, linalg_calls):
        # The 4th singular value clears 1e-10 of the largest but not the
        # Gram route's cut, so the SVD route answers, bit for bit.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(crandn(rng, 30, 6))
        w, _ = np.linalg.qr(crandn(rng, 6, 6))
        y = (q * np.array([1.0, 0.5, 0.2, 1e-4, 1e-6, 1e-7])) @ w.conj().T
        u, _, vh = np.linalg.svd(y, full_matrices=False)
        u_k, vh_k = precondition(y, k_users=4)
        assert linalg_calls == ["_eigh", "_svd"]
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
    def test_factors_orthonormal_on_both_routes(self, linalg_calls, gram_route):
        # A 4th singular value of 1e-4 of the largest fails the Gram route's
        # cut, so the SVD answers.
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(crandn(rng, 30, 6))
        w, _ = np.linalg.qr(crandn(rng, 6, 6))
        fourth = 0.1 if gram_route else 1e-4
        y = (q * np.array([1.0, 0.5, 0.2, fourth, 1e-6, 1e-7])) @ w.conj().T
        u, vh = precondition(y, k_users=4)
        assert linalg_calls == (["_eigh"] if gram_route else ["_eigh", "_svd"])
        assert u.shape == (30, 4) and vh.shape == (4, 6)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(4)) < 1e-10

    @staticmethod
    def _check_large_block(t, scale):
        # The block is scaled by a power of two before its Gram, warning-free.
        y = crandn(np.random.default_rng(10), 256, t)
        u_ref, vh_ref = precondition(y, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, vh = precondition(scale * y, 8)
        assert np.abs(u @ vh - u_ref @ vh_ref).max() < 1e-10

    @pytest.mark.parametrize("t", [40, 240])
    def test_large_block_below_the_limit_preconditions(self, t):
        # 1e150 kept ||Ybar||_F^2 finite, below the norm limit precondition
        # once had (1.3e154), on the full route (T = 40) and the subspace
        # route (T = 240).
        self._check_large_block(t, 1e150)

    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e200])
    def test_huge_finite_block_rejected_by_scale(self, scale):
        # The name dates from the norm limit that once rejected these blocks;
        # none is rejected now.  At 1e155 and 1e160 the Gram's product
        # overflowed, and at 1e200 the norm itself.  Both routes run.
        for t in (40, 240):
            self._check_large_block(t, scale)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("t", [40, 240])
    def test_non_finite_block_rejected_by_name(self, entry, t):
        y = crandn(np.random.default_rng(11), 256, t)
        y[3, 5] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="received block must be finite"):
                precondition(y, 8)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 48),
        cols=st.sampled_from([1, 2, 5, 12, 40, 96, 130]),
        k=st.integers(1, 9),
        log_scale=st.one_of(st.floats(-300.0, 300.0), st.floats(150.0, 156.0)),  # the old limit was 1.3e154
        bad=st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf, complex(np.inf, np.nan),
                                                  complex(0.0, -np.inf)])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_factored_gram_is_finite(self, rows, cols, k, log_scale, bad, seed):
        # precondition rejects a NaN or inf entry before manifold's _eigh or
        # _svd runs, and scales every other block so that every matrix that
        # reaches them has a finite Gram, at any norm.
        rng = np.random.default_rng(seed)
        y = 10.0**log_scale * crandn(rng, rows, cols)
        if bad is not None:
            y[rng.integers(rows), rng.integers(cols)] = bad
        finite = []

        def spy(real, gram_of):
            def call(m):
                with np.errstate(all="ignore"):
                    finite.append(bool(np.isfinite(gram_of(m)).all()))
                return real(m)
            return call

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(manifold, "_eigh", spy(manifold._eigh, lambda gram: gram))
            mp.setattr(manifold, "_svd", spy(manifold._svd, lambda m: m.conj().T @ m))
            try:
                precondition(y, k)
            except RankDeficientError:
                pass
            except ValueError as exc:
                assert not finite, f"{exc} raised after a factorization"
                assert ("must be finite" in str(exc)) == (bad is not None)
            else:
                assert bad is None
        assert all(finite)

    # A 5 x 1 column with ||Ybar||_F at most sqrt(float max), the norm limit
    # precondition once had, whose Gram's one entry, the sum of five squares,
    # rounded past float max to inf: it raised ValueError naming infs or NaNs
    # the block did not have.  Beside two zero columns it raised
    # FloatingPointError (inf * 0 in the Gram).
    COLUMN_AT_THE_OLD_LIMIT = np.array([
        [-7.676162904269735e153 + 2.7949267349405192e153j], [3.8798058802715325e153 - 2.58044776015609e153j],
        [1.1055871036999645e153 + 4.565015617132744e153j], [-3.9494678781144856e153 + 2.2236982138102377e153j],
        [6.0848419824777746e153 + 3.419428920383757e153j]])

    @pytest.mark.parametrize("zero_columns, k", [(0, 1), (2, 1), (2, 2)])
    def test_column_at_the_old_limit_factors(self, zero_columns, k):
        y = np.hstack([self.COLUMN_AT_THE_OLD_LIMIT, np.zeros((5, zero_columns))])
        assert np.linalg.norm(y) <= np.sqrt(np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if k > 1:  # one nonzero column carries one direction
                with pytest.raises(RankDeficientError, match="does not carry 2 usable directions"):
                    precondition(y, k)
                return
            u, vh = precondition(y, k)
        col = self.COLUMN_AT_THE_OLD_LIMIT[:, 0]
        assert np.abs(np.abs(u[:, 0]) - np.abs(col) / np.linalg.norm(col / 1e154) / 1e154).max() < 1e-15
        assert np.abs(np.abs(vh) - np.eye(1, 1 + zero_columns)).max() < 1e-15

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
        h = 2.5 * random_stiefel(64, 4, rng)
        y = h @ frame.x
        y_pre = precondition(y, k_users=4)
        u, _, vh = np.linalg.svd(frame.x, full_matrices=False)
        x_pre = u @ vh  # orthonormal-row factor of the true frame
        x_hat = postprocess(y_pre, x_pre, y)
        assert evm(x_hat, frame.x) < 1e-6

    def test_orthonormal_d_reduces_to_adjoint(self):
        rng = np.random.default_rng(1)
        u = random_stiefel(10, 3, rng)
        x_pre = random_stiefel(8, 3, rng).conj().T
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

    def test_all_zero_block_rejected(self):
        # D = u has full column rank, but the least-squares estimate of an
        # all-zero block is all zero, and its rows cannot be normalized.
        rng = np.random.default_rng(1)
        u = random_stiefel(10, 3, rng)
        x_pre = random_stiefel(8, 3, rng).conj().T
        with pytest.raises(RankDeficientError, match="reprojected estimate has an all-zero row"):
            postprocess(u @ x_pre, x_pre, np.zeros((10, 8), complex))


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
            assert close(iterate(a, pair, g, p), iterate(a, dense, g, p))
        x_pre = random_stiefel(40, 4, rng).conj().T
        assert close(postprocess(pair, x_pre, y), postprocess(dense, x_pre, y))

    def test_solve_and_postprocess_never_form_the_block(self):
        rng = np.random.default_rng(12)
        y = crandn(rng, 512, 4) @ crandn(rng, 4, 200) + 1e-2 * crandn(rng, 512, 200)
        pair = precondition(y, k_users=4)
        tracemalloc.start()
        try:
            a, _ = solve(pair, np.ones(4), SolverOptions(max_iters=5), rng)
            postprocess(pair, a.conj().T, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes / 4  # u @ vh would take y.nbytes

    @staticmethod
    def short_pair(fading, seed):
        cfg = SystemConfig(k_users=4, n_h=64, t_len=40, channel_model="bernoulli_gaussian",
                           fading_model=fading)
        sc = build_scenario(cfg, np.random.default_rng(seed))
        return precondition(sc.y_bar, k_users=4), sc.g_diag

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("fading", ["identity", "log_distance"])
    @pytest.mark.parametrize("start", ["haar", "a0", "restart"])
    def test_solve_on_the_pair_matches_the_dense_block(self, p, fading, start):
        # On the pair solve iterates K x K coordinates in vh's row space; on
        # the dense u @ vh it iterates T x K points.  With the same rng both
        # take the same steps and stop alike.  The "restart" start has one
        # column orthogonal to vh's rows, so its gradient is rank deficient
        # and both restart from the same fresh draw.
        (u, vh), g = self.short_pair(fading, seed=p)
        rng = np.random.default_rng(7)
        a0 = {"haar": None, "a0": random_stiefel(40, 4, rng),
              "restart": np.column_stack([np.linalg.svd(vh)[2][-1].conj(), vh[1:].conj().T])}[start]
        runs = [solve(y, g, SolverOptions(), np.random.default_rng(3), a0=a0, p_exponent=p)
                for y in ((u, vh), u @ vh)]
        (a_pair, tr_pair), (a_dense, tr_dense) = runs
        assert (tr_pair.iters_run, tr_pair.stop_reason) == (tr_dense.iters_run, tr_dense.stop_reason)
        assert tr_pair.restarts == tr_dense.restarts == (start == "restart")
        obj = tr_dense.objective_per_iter
        assert np.all(np.abs(tr_pair.objective_per_iter - obj) <= 1e-12 * obj)
        # eta is ||grad||_* - Re<A, grad>, a difference of two terms of
        # size p * objective, so its rounding is relative to the objective.
        assert np.all(np.abs(tr_pair.eta_per_iter - tr_dense.eta_per_iter) <= 1e-12 * obj)
        assert np.abs(a_pair - a_dense).max() <= 1e-10

    def test_iterates_lie_in_the_row_space(self, monkeypatch):
        # After the start the loop holds K x K coordinates x; each iterate
        # vh^H x is orthonormal, and is the public iterate of the one before
        # it up to rounding.
        (u, vh), g = self.short_pair("log_distance", seed=5)
        a0 = random_stiefel(40, 4, np.random.default_rng(1))
        coords = spy_evaluate(monkeypatch)
        a, tr = solve((u, vh), g, SolverOptions(), np.random.default_rng(1), a0=a0)
        monkeypatch.undo()
        assert len(coords) == tr.iters_run + 1 >= 3 and tr.restarts == 0
        points = [a0] + [vh.conj().T @ x for x in coords[1:]]
        for j in range(1, len(points)):
            assert coords[j].shape == (4, 4)
            manifold._check_orthonormal(points[j])
            assert np.linalg.norm(points[j] - iterate(points[j - 1], (u, vh), g)) <= 1e-12
        assert a.tobytes() == points[-1].tobytes()

    @pytest.mark.parametrize("vh_of", [
        lambda vh: 2.0 * vh,
        lambda vh: vh[:3],
        lambda vh: np.vstack([vh, vh[:1]]),
    ], ids=["not_orthonormal", "too_few_rows", "too_many_rows"])
    def test_pair_needs_k_orthonormal_rows(self, vh_of, monkeypatch):
        (u, vh), g = self.short_pair("identity", seed=0)
        vh = vh_of(vh)
        monkeypatch.setattr(detector, "_evaluate", None)
        with pytest.raises(ValueError, match="vh must be a 4 x 40 matrix with orthonormal rows"):
            solve((u[:, : vh.shape[0]], vh), g, SolverOptions(), np.random.default_rng(0))

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
        indices = demodulate(x, c)
        assert np.array_equal(indices, idx)

    def test_identity_under_small_perturbation(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 4, size=(2, 30))
        dmin = np.sqrt(2.0)  # QPSK minimum distance
        noise = crandn(rng, 2, 30)
        noise = noise / np.abs(noise) * (0.49 * dmin)
        x = (c.points[idx] + noise) / np.sqrt(30)
        indices = demodulate(x, c)
        assert np.array_equal(indices, idx)

    def test_exhaustive_nearest_oracle(self):
        c = build_constellation("qam16")
        rng = np.random.default_rng(2)
        v = 2.0 * crandn(rng, 4, 25)
        indices = demodulate(v / np.sqrt(25), c)
        for i in range(4):
            for t in range(25):
                dists = [abs(v[i, t] - p) for p in c.points]
                assert indices[i, t] == int(np.argmin(dists))


class TestDetectEndToEnd:
    def test_noiseless_recovery(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(0)
        frame = build_frame(4, 80, c, rng)
        chan = bernoulli_gaussian_channel(128, 4, 0.15, rng)
        y_bar = synthesize_received(chan, frame.x, np.ones(4), 0.0, rng)
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
        y_bar = synthesize_received(chan, frame.x, np.ones(4), sigma, rng)
        res_pre = detect(y_bar, np.ones(4), frame.meta, c,
                         SolverOptions(precondition=True), np.random.default_rng(1))
        assert evm(res_pre.x_hat, frame.x) < 0.1


class TestDetectByMethod:
    @staticmethod
    def scenario(precondition_on):
        cfg = SystemConfig(k_users=4, n_h=64, t_len=40, theta=0.15, channel_model="bernoulli_gaussian",
                           solver=SolverOptions(max_iters=60, precondition=precondition_on))
        return cfg, build_scenario(cfg, np.random.default_rng(3)), build_constellation(cfg.constellation)

    @pytest.mark.parametrize("precondition_on", [False, True], ids=["dense", "preconditioned"])
    @pytest.mark.parametrize("method, solver, kwargs", [
        ("l3", solve, {"p_exponent": 3}),
        ("l4", solve, {"p_exponent": 4}),
        ("rgd", riemannian_gd_baseline, {}),
    ], ids=["l3", "l4", "rgd"])
    def test_matches_the_solver_it_names(self, method, solver, kwargs, precondition_on):
        # The path detect took when it was handed a (solver, exponent) pair.
        cfg, sc, c = self.scenario(precondition_on)
        res = detect(sc.y_bar, sc.g_diag, sc.frame.meta, c, cfg.solver, np.random.default_rng(5), method=method)
        y_in = precondition(sc.y_bar, 4) if precondition_on else sc.y_bar
        a, trace = solver(y_in, sc.g_diag, cfg.solver, np.random.default_rng(5), **kwargs)
        x_est = postprocess(y_in, a.conj().T, sc.y_bar) if precondition_on else a.conj().T
        x_hat, _ = resolve_ambiguity(x_est, sc.frame.meta, c)
        assert np.array_equal(res.x_hat, x_hat)
        assert np.array_equal(res.symbol_indices, demodulate(x_hat, c))
        assert np.array_equal(res.trace.objective_per_iter, trace.objective_per_iter)
        assert np.array_equal(res.trace.eta_per_iter, trace.eta_per_iter)
        assert (res.trace.stop_reason, res.trace.n_evals, res.trace.restarts) == (
            trace.stop_reason, trace.n_evals, trace.restarts)

    @pytest.mark.parametrize("method, name, kwargs", [
        ("l3", "solve", {"p_exponent": 3}),
        ("l4", "solve", {"p_exponent": 4}),
        ("rgd", "riemannian_gd_baseline", {}),
    ], ids=["l3", "l4", "rgd"])
    def test_reaches_a_patched_solver(self, monkeypatch, method, name, kwargs):
        # Each solver is looked up at the call, so a patch of the module sees it.
        real, calls = getattr(detector, name), []

        def spy(*args, **kw):
            calls.append(kw)
            return real(*args, **kw)

        monkeypatch.setattr(detector, name, spy)
        monkeypatch.setattr(detector, "riemannian_gd_baseline" if name == "solve" else "solve", None)
        cfg, sc, c = self.scenario(False)
        detect(sc.y_bar, sc.g_diag, sc.frame.meta, c, cfg.solver, np.random.default_rng(5), method=method)
        assert calls == [kwargs]

    @pytest.mark.parametrize("method", ["pilot", "L3", "solve", None])
    def test_unknown_method_rejected(self, monkeypatch, method):
        for name in ("precondition", "solve", "riemannian_gd_baseline"):
            monkeypatch.setattr(detector, name, None)
        cfg, sc, c = self.scenario(True)
        with pytest.raises(ValueError, match=r"unknown blind method .*; choose from \('l3', 'l4', 'rgd'\)"):
            detect(sc.y_bar, sc.g_diag, sc.frame.meta, c, cfg.solver, np.random.default_rng(5), method=method)


class TestScaleFree:
    # The default config's dense block and a short frame's preconditioned
    # pair (the CI runs dense and short), at 20 dB.
    CONFIGS = {
        "dense": SystemConfig(),
        "preconditioned": SystemConfig(k_users=8, t_len=40, n_h=256, theta=0.1, channel_model="bernoulli_gaussian",
                                       fading_model="log_distance", solver=SolverOptions(precondition=True)),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("method", ["l3", "l4"])
    def test_detect_does_not_depend_on_the_units(self, config, method):
        # detect on (2^e Ybar, G) and on (Ybar, 4^-e G) makes the decisions,
        # iterations and stop of e = 0, warning-free, for e on both sides of
        # the old limits: the stop rule's floor ended every solve at its
        # start from about e = -10 down, and the norm limits rejected dense
        # blocks from e = 200 (l4) or 300 (l3) up and preconditioned ones
        # from e = 520.  Ybar's entries stay normal numbers over the set, and
        # so do G's over the smaller one.  W = Ybar A G^(-1/2) scales by
        # 2^e, so the trace scales by 2^(p e), to the bit and to inf or 0
        # past the float range, but on the pair only with G: its factors do
        # not scale with Ybar.
        cfg, p = self.CONFIGS[config], 3 if method == "l3" else 4
        c = build_constellation(cfg.constellation)
        sc = build_scenario(cfg, np.random.default_rng(3))

        def run(y_bar, g_diag):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return detect(y_bar, g_diag, sc.frame.meta, c, cfg.solver, np.random.default_rng(5), method)

        ref = run(sc.y_bar, sc.g_diag)
        assert ref.trace.iters_run >= 5
        cases = [(e, np.ldexp(1.0, e) * sc.y_bar, sc.g_diag, 0 if cfg.solver.precondition else p * e)
                 for e in (-900, -300, -12, 12, 260, 600, 900)]
        cases += [(e, sc.y_bar, np.ldexp(sc.g_diag, -2 * e), p * e) for e in (-450, -120, -12, 12, 120, 450)]
        for e, y_bar, g_diag, shift in cases:
            res = run(y_bar, g_diag)
            assert np.array_equal(res.symbol_indices, ref.symbol_indices), e
            assert np.array_equal(res.x_hat, ref.x_hat), e
            assert (res.trace.iters_run, res.trace.stop_reason) == (ref.trace.iters_run, ref.trace.stop_reason), e
            with np.errstate(over="ignore", under="ignore"):
                assert np.array_equal(res.trace.objective_per_iter, np.ldexp(ref.trace.objective_per_iter, shift)), e
                assert np.array_equal(res.trace.eta_per_iter, np.ldexp(ref.trace.eta_per_iter, shift)), e

    @pytest.mark.parametrize("fading", ["identity", "log_distance"])
    def test_solve_to_the_plateau_stops_where_it_would_in_any_units(self, fading):
        # With eta_tol 0 every solve runs until a step no longer raises the
        # objective.  On (2^k Ybar, G) and on (Ybar, 4^k G) it stops there too,
        # at the same iterate to the bit, and eta scales by 2^(p k) and
        # 2^(-p k), to inf or 0 past the float range; a pair's factors do not
        # scale with Ybar.
        cfg = SystemConfig(k_users=4, n_h=64, t_len=60, theta=0.15, snr_db=30.0,
                           channel_model="bernoulli_gaussian", fading_model=fading)
        opts = SolverOptions(max_iters=300, eta_tol=0.0)
        for seed, p, pre in itertools.product(range(4), (3, 4), (False, True)):
            sc = build_scenario(cfg, np.random.default_rng(seed))

            def run(y_bar, g_diag):
                block = precondition(y_bar, 4) if pre else y_bar
                return solve(block, g_diag, opts, np.random.default_rng(seed + 7), p_exponent=p)

            a, tr = run(sc.y_bar, sc.g_diag)
            for k in (20, 100, 300):
                for y_bar, g_diag, shift in ((np.ldexp(1.0, k) * sc.y_bar, sc.g_diag, 0 if pre else p * k),
                                             (sc.y_bar, np.ldexp(sc.g_diag, 2 * k), -p * k)):
                    a_k, tr_k = run(y_bar, g_diag)
                    assert (tr_k.stop_reason, tr_k.iters_run, tr_k.n_evals) == (
                        tr.stop_reason, tr.iters_run, tr.n_evals), (seed, p, pre, k, shift)
                    assert a_k.tobytes() == a.tobytes()
                    with np.errstate(over="ignore", under="ignore"):
                        assert tr_k.final_eta == np.ldexp(tr.final_eta, shift)
            assert tr.stop_reason == "no_ascent" and tr.iters_run < 300

    def test_random_calls_end_in_a_result_or_a_rank_error(self):
        # Small detect calls, dense and preconditioned, by every method, with
        # ||Ybar||_F from 1e-320 (subnormal entries) to 1e154 and G from
        # 1e-300 to 1e300, a common scale or one per user: some blocks of
        # rank one, some with a zero column.  Every input is finite and
        # valid, so each call must return or raise RankDeficientError,
        # warning-free.  Before the solvers were normalized, these calls
        # raised FloatingPointError, "received block too large", and called
        # nonzero blocks identically zero.
        c = build_constellation("qpsk")
        rng = np.random.default_rng(2024)
        outcomes = {"returned": 0, "RankDeficientError": 0}
        for _ in range(400):
            k = int(rng.integers(1, 5))
            t, m = int(rng.integers(max(k, 3), 13)), int(rng.integers(k, 13))
            frame = build_frame(k, t, c, rng)
            y = crandn(rng, m, t)
            if rng.random() < 0.2:
                y = np.outer(y[:, 0], y[0])
            if rng.random() < 0.3:
                y[:, rng.integers(t)] = 0
            y *= 10.0 ** rng.uniform(-320, 154) / np.linalg.norm(y)
            spread = rng.uniform(-300, 300, k) if rng.random() < 0.5 else rng.uniform(-1, 1, k)
            g = 10.0 ** np.clip(rng.uniform(-300, 300) + spread, -300, 300)
            opts = SolverOptions(max_iters=30, precondition=bool(rng.random() < 0.5))
            method = str(rng.choice(["l3", "l4", "rgd"]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    detect(y, g, frame.meta, c, opts, rng, method)
                    outcomes["returned"] += 1
                except RankDeficientError:
                    outcomes["RankDeficientError"] += 1
        assert min(outcomes.values()) >= 100, outcomes


class TestRiemannianGdBaseline:
    def test_matches_polar_solver_on_noiseless_instance(self):
        rng = np.random.default_rng(9)
        x = random_stiefel(60, 4, rng).conj().T
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
        y_bar = synthesize_received(chan, frame.x, np.ones(8), sigma, rng)
        opts = SolverOptions(max_iters=500, eta_tol=1e-7)
        _, tr_fw = solve(y_bar, np.ones(8), opts, np.random.default_rng(1))
        _, tr_gd = riemannian_gd_baseline(y_bar, np.ones(8), opts, np.random.default_rng(1))
        assert tr_gd.n_evals > tr_fw.n_evals

    def test_rank_deficient_candidate_is_skipped(self, monkeypatch):
        # Each step's first candidate raises RankDeficientError from its
        # retraction.  The line search goes on to the halved step, and
        # n_evals counts only the candidates it scored.  The loop runs in
        # _solver_inputs' units, where step 1 in the caller's is 2^(3 e).
        rng = np.random.default_rng(9)
        y, _, _ = noiseless_instance(rng, m=64, k=3, t=40)
        y = y + 1e-3 * crandn(rng, *y.shape)
        tau = 2.0 ** (3 * detector._solver_inputs(y, np.ones(3), 3)[2])
        real_grad, real_retract = detector.riemannian_grad, detector.polar_retract
        steps = []  # per step: its point, its direction and the candidates retracted

        def grad(a, g):
            steps.append((a, real_grad(a, g), []))
            return steps[-1][1]

        def retract(m):
            seen = steps[-1][2]
            seen.append(m)
            if len(seen) == 1:
                raise RankDeficientError("first candidate refused")
            return real_retract(m)

        monkeypatch.setattr(detector, "riemannian_grad", grad)
        monkeypatch.setattr(detector, "polar_retract", retract)
        a, tr = riemannian_gd_baseline(y, np.ones(3), SolverOptions(max_iters=20), np.random.default_rng(5))
        assert tr.stop_reason != "no_ascent" and tr.iters_run == len(steps) >= 2
        for a_j, direction, seen in steps:
            assert np.array_equal(seen[0], a_j + tau * direction)
            assert np.array_equal(seen[1], a_j + tau / 2 * direction)
        assert tr.n_evals == len(tr.objective_per_iter) + sum(len(seen) - 1 for _, _, seen in steps)
        assert np.linalg.norm(a.conj().T @ a - np.eye(3)) < 1e-9


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
        pilots = random_stiefel(t_pilot, k, rng).conj().T  # orthonormal rows
        chan = bernoulli_gaussian_channel(m, k, 0.2, rng)
        g = np.ones(k)
        y_train = chan @ pilots
        x = random_stiefel(30, k, rng).conj().T
        y_data = chan @ x
        x_hat = pilot_zf_baseline(y_train, pilots, y_data, g, lam=0.0)
        assert evm(x_hat, x) < 1e-8

    def test_zeroed_user_named(self):
        # With orthonormal pilot rows the estimate is the soft threshold of
        # Y X^H at lam: a weak user's whole column falls below it.
        rng = np.random.default_rng(5)
        k, m = 3, 16
        pilots = random_stiefel(8, k, rng).conj().T
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
        y_bar = synthesize_received(chan, frame.x, g, sigma, rng)
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
        pilots = random_stiefel(16, k, rng).conj().T
        h = crandn(rng, m, k)
        with pytest.raises(RankDeficientError, match="zero-forcing matrix is rank deficient"):
            pilot_zf_baseline(h @ pilots, pilots, h @ crandn(rng, k, 30), np.ones(k), lam=0.0)

    def test_estimate_does_not_depend_on_the_units(self):
        # 2^k Ytrain, 2^k Ydata and 4^k G are the same inputs in other units:
        # the baseline returns k = 0's x_hat bit for bit.  Log-distance gains
        # (g_k ~ 1e-10, about 2^-33) keep 4^k G normal for |k| <= 480.
        cfg = SystemConfig(k_users=4, t_len=60, n_h=32, t_pilot=8, channel_model="bernoulli_gaussian",
                           fading_model="log_distance", trials=1, base_seed=99)
        sc = build_scenario(cfg, np.random.default_rng(5))
        rng = np.random.default_rng(105)
        c = build_constellation("qpsk")
        pilots = c.points[rng.integers(0, c.size, size=(4, 8))]
        y_train = synthesize_received(sc.channel, pilots, sc.gains, sc.sigma_z2, rng)
        ref = pilot_zf_baseline(y_train, pilots, sc.y_bar, sc.gains, lam=2.0)
        assert evm(ref, sc.frame.x) < 0.1
        for k in (-480, -1, 1, 480):
            x_hat = pilot_zf_baseline(np.ldexp(1.0, k) * y_train, pilots, np.ldexp(1.0, k) * sc.y_bar,
                                      np.ldexp(sc.gains, 2 * k), lam=2.0)
            assert np.array_equal(x_hat, ref), k


class TestInputRank:
    @pytest.mark.parametrize("name, call", [
        ("a", lambda y, a, g, meta, c: objective(y, a[:, 0], g)),
        ("a", lambda y, a, g, meta, c: euclid_grad(y, a[:, 0], g)),
        ("a", lambda y, a, g, meta, c: iterate(a[:, 0], y, g)),
        ("g_diag", lambda y, a, g, meta, c: solve(y, g[0], SolverOptions(), np.random.default_rng(0))),
        ("g_diag", lambda y, a, g, meta, c: riemannian_gd_baseline(
            y, g[0], SolverOptions(), np.random.default_rng(0))),
        ("g_diag", lambda y, a, g, meta, c: detect(
            y, g[0], meta, c, SolverOptions(), np.random.default_rng(0))),
    ], ids=["objective", "euclid_grad", "iterate", "solve", "riemannian_gd_baseline", "detect"])
    def test_wrong_rank_rejected_by_name(self, name, call, monkeypatch):
        # A 1-D point or a 0-d fading vector is rejected before any evaluation.
        rng = np.random.default_rng(0)
        c = build_constellation("qpsk")
        frame = build_frame(1, 20, c, rng)
        y = bernoulli_gaussian_channel(16, 1, 0.5, rng) @ frame.x
        a, g = random_stiefel(20, 1, rng), np.ones(1)
        monkeypatch.setattr(detector, "_evaluate", None)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(y, a, g, frame.meta, c)

    @pytest.mark.parametrize("call", [
        lambda: objective(np.ones(20), random_stiefel(20, 2, np.random.default_rng(0)), np.ones(2)),
        lambda: solve(np.ones(20), np.ones(2), SolverOptions(), np.random.default_rng(0)),
        lambda: precondition(np.ones(20), 2),
        lambda: solve((np.ones((16, 2)), np.ones(20)), np.ones(2), SolverOptions(),
                      np.random.default_rng(0)),
    ], ids=["objective", "solve", "precondition", "pair_with_1d_vh"])
    def test_non_2d_block_rejected_by_name(self, call, monkeypatch):
        monkeypatch.setattr(detector, "_evaluate", None)
        with pytest.raises(ValueError, match=r"^y_bar must be .*\(20,\)"):
            call()


class TestSharedAscentLoop:
    @pytest.mark.parametrize("p", [3, 4])
    def test_trace_matches_public_kernels(self, p, monkeypatch):
        # The loop and the public objective / gradient / eta share one kernel
        # and one factorization route: the traced objective and eta are
        # bit-identical to objective() and optimality_eta() at every point
        # the loop evaluated.  On the dense block that point is the iterate;
        # on precondition's pair it is the K x K coordinates x = vh A, which
        # the loop evaluates on the left factor u, and so do the public
        # kernels called on (u,).
        rng = np.random.default_rng(11)
        y, _, _ = noiseless_instance(rng, m=48, k=3, t=30, theta=0.2)
        y = y + 1e-3 * crandn(rng, *y.shape)
        g = rng.uniform(0.5, 2.0, 3)
        u, vh = precondition(y, 3)
        for block, left in ((y, y), ((u, vh), (u,))):
            seen = spy_evaluate(monkeypatch)
            _, tr = solve(block, g, SolverOptions(), np.random.default_rng(4), p_exponent=p)
            monkeypatch.undo()
            assert len(seen) == tr.iters_run + 1 >= 3
            for j, x in enumerate(seen):
                assert objective(left, x, g, p) == tr.objective_per_iter[j]
                assert optimality_eta(x, euclid_grad(left, x, g, p)) == tr.eta_per_iter[j]

    @pytest.mark.parametrize("drop", [0.0, 1e-9])
    def test_a_step_that_does_not_raise_the_objective_returns_the_start(self, drop, monkeypatch):
        # The second evaluation, at the first step, is lowered by ``drop`` (0:
        # equal to the start's objective): the solve stops with no_ascent at
        # its start, which it returns as given, on a dense block and on a pair.
        rng = np.random.default_rng(2)
        y, _, _ = noiseless_instance(rng, m=48, k=3, t=30)
        a0 = random_stiefel(30, 3, np.random.default_rng(8))
        evaluate = detector._evaluate
        for block in (y, precondition(y, 3)):
            calls = []

            def lowered(*args, **kw):
                obj, grad = evaluate(*args, **kw)
                calls.append(obj)
                return (calls[0] * (1.0 - drop) if len(calls) == 2 else obj), grad

            monkeypatch.setattr(detector, "_evaluate", lowered)
            a, tr = solve(block, np.ones(3), SolverOptions(), np.random.default_rng(1), a0=a0)
            monkeypatch.undo()
            assert (tr.stop_reason, tr.iters_run, tr.n_evals) == ("no_ascent", 0, 2)
            assert a.tobytes() == a0.tobytes()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        k=st.integers(1, 4),
        extra_t=st.sampled_from([0, 3, 12]),
        constellation=st.sampled_from(["qpsk", "qam16"]),
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
            assert np.all(np.diff(tr.objective_per_iter) >= 0)
            assert tr.stop_reason in ("eta_tol", "max_iters", "no_ascent")
            assert np.all(tr.eta_per_iter >= 0.0)
            assert np.linalg.norm(a.conj().T @ a - np.eye(k)) < 1e-9
            assert tr.n_evals >= tr.iters_run + 1


@pytest.mark.parametrize("call, message", [
    (lambda: objective(np.ones((5, 6)), random_stiefel(7, 2, np.random.default_rng(0)), np.ones(2)),
     r"dimension mismatch: y_bar has 6 columns, a is \(7, 2\)"),
    (lambda: objective(np.ones((32, 3)), np.eye(3, 4), np.ones(4)), r"need T >= K, got T=3, K=4"),
    (lambda: euclid_grad((np.ones((32, 3)), np.eye(3)), np.eye(3, 4), np.ones(4), 4), r"need T >= K, got T=3, K=4"),
    (lambda: iterate(np.eye(3, 4), np.ones((32, 3)), np.ones(4)), r"need T >= K, got T=3, K=4"),
    (lambda: optimality_eta(np.eye(3, 2), np.eye(4, 2)), r"shape mismatch: grad \(4, 2\) vs point \(3, 2\)"),
    (lambda: resolve_ambiguity(np.ones((3, 16)), build_frame(4, 16, build_constellation("qpsk"),
                                                             np.random.default_rng(0)).meta,
                               build_constellation("qpsk")),
     "estimate and frame metadata disagree on K"),
    (lambda: pilot_zf_baseline(np.ones((4, 0)), np.ones((2, 0)), np.ones((4, 8)), np.ones(2), 1.0),
     "need at least one pilot symbol"),
    (lambda: pilot_zf_baseline(np.ones((4, 3)), np.zeros((2, 3)), np.ones((4, 8)), np.ones(2), 1.0),
     "pilot matrix is zero"),
    (lambda: SolveTrace(np.zeros(3), np.zeros(2), "eta_tol"), "objective and eta traces must be equal-length vectors"),
    (lambda: SolveTrace(np.zeros(2), np.zeros(2), "converged"), "unknown stop reason 'converged'"),
    (lambda: AmbiguityResolution(np.ones(3), np.array([0, 0, 2]), np.zeros(3)),
     r"permutation must be a bijection on 0..K-1"),
    (lambda: AmbiguityResolution(np.array([1.0, 1j, 1.01]), np.array([2, 0, 1]), np.zeros(3)),
     "phase corrections must be unit modulus"),
    (lambda: DetectionResult(np.array([[1.0, 0.0], [1.2, 1.0]]), np.zeros((2, 2), int),
                             SolveTrace(np.zeros(1), np.zeros(1), "eta_tol"),
                             AmbiguityResolution(np.ones(2), np.arange(2), np.zeros(2))),
     r"x_hat row norms outside the sane range \(0, 1.5\]"),
], ids=["objective_t_mismatch", "objective_t_below_k", "euclid_grad_t_below_k", "iterate_t_below_k",
        "optimality_eta_shapes", "resolve_ambiguity_k_mismatch", "pilot_no_columns",
        "pilot_all_zero", "trace_lengths_differ", "trace_stop_reason_unknown",
        "resolution_not_a_bijection", "resolution_phase_off_the_circle", "result_row_norm_above_1_5"])
def test_inputs_that_cannot_work_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
