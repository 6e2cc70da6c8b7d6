"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria are numbered 1-13; every tolerance is pinned
here, not configured elsewhere.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import blindmimo as bm
from blindmimo import SolverOptions, SystemConfig
from blindmimo.cli import main as cli_main
from blindmimo.harness import (
    iterations_to_level,
    run_concentration_experiment,
    run_convergence_experiment,
    run_sweep,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- criteria 1 and 2 share one batch of seeded solver runs -----------------

@pytest.fixture(scope="module")
def grid_runs():
    """504 solver runs spanning K x M x SNR x theta; worst drop and feasibility."""
    c = bm.build_constellation("qpsk")
    t_len = 120
    worst_drop = 0.0
    max_feas = 0.0
    n_runs = 0
    t0 = time.perf_counter()
    for ki, k in enumerate((2, 4, 8)):
        for mi, m in enumerate((64, 256)):
            for si, snr in enumerate((0.0, 10.0, 30.0)):
                for ti, theta in enumerate((0.1, 0.3)):
                    for rep in range(14):
                        rng = np.random.default_rng(
                            np.random.SeedSequence([1000, ki, mi, si, ti, rep])
                        )
                        frame = bm.build_frame(k, t_len, c, rng)
                        chan = bm.bernoulli_gaussian_channel(m, k, theta, rng)
                        g = np.ones(k)
                        sigma = bm.snr_to_noise_variance(snr, k, t_len)
                        y_bar = bm.synthesize_received(chan, frame.x, g, g, sigma, rng)
                        feas = []

                        def hook(pt, j, feas=feas):
                            feas.append(
                                float(np.linalg.norm(
                                    pt.a.conj().T @ pt.a - np.eye(pt.k_dim)))
                            )

                        _, tr = bm.solve(y_bar, g, SolverOptions(max_iters=150),
                                         rng, on_iterate=hook)
                        drops = np.diff(tr.objective_per_iter)
                        if drops.size:
                            worst_drop = min(worst_drop, float(drops.min()))
                        max_feas = max(max_feas, max(feas))
                        n_runs += 1
    return {"worst_drop": worst_drop, "max_feas": max_feas, "n_runs": n_runs,
            "elapsed": time.perf_counter() - t0}


def test_criterion_01_monotone_ascent(grid_runs):
    ok = (grid_runs["n_runs"] >= 500
          and grid_runs["worst_drop"] >= -1e-12
          and grid_runs["elapsed"] < 180.0)
    report(1, ok,
           f"monotone ascent over {grid_runs['n_runs']} runs, worst step "
           f"{grid_runs['worst_drop']:.2e} >= -1e-12, {grid_runs['elapsed']:.0f}s < 180s")


def test_criterion_02_stiefel_feasibility(grid_runs):
    ok = grid_runs["max_feas"] < 1e-8
    report(2, ok,
           f"every iterate feasible, max ||A^H A - I||_F = {grid_runs['max_feas']:.2e} < 1e-8")


def test_criterion_03_gradient_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (3, 4):
        for i in range(20):
            rng = np.random.default_rng(40_000 + 100 * p + i)
            t_dim = int(rng.integers(4, 17))
            k_dim = int(rng.integers(1, 4))
            k_dim = min(k_dim, t_dim)
            y = crandn(rng, 12, t_dim)
            a = bm.random_stiefel(t_dim, k_dim, rng)
            g_diag = rng.uniform(0.5, 2.0, k_dim)
            grad = bm.euclid_grad(y, a, g_diag, p)
            delta = crandn(rng, t_dim, k_dim)
            h = 1e-5
            fd = (bm.objective(y, a.a + h * delta, g_diag, p)
                  - bm.objective(y, a.a - h * delta, g_diag, p)) / (2 * h)
            an = float(np.real(np.vdot(grad, delta)))
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    report(3, ok, f"gradient vs central differences (p=3,4): worst rel err "
                  f"{worst:.2e} < 1e-4, {elapsed:.1f}s < 10s")


def test_criterion_04_polar_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(41_000 + i)
        t_dim = int(rng.integers(8, 40))
        k_dim = int(rng.integers(1, 7))
        m = crandn(rng, t_dim, k_dim)
        w, v = np.linalg.eigh(m.conj().T @ m)
        oracle = m @ (v @ np.diag(w**-0.5) @ v.conj().T)
        worst = max(worst, float(np.linalg.norm(bm.polar_retract(m).a - oracle)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(4, ok, f"polar factor vs m (m^H m)^(-1/2) eigen-oracle on 100 draws: "
                  f"worst {worst:.2e} < 1e-8, {elapsed:.1f}s < 5s")


def test_criterion_05_step_size_grid_oracle():
    t0 = time.perf_counter()
    hits = 0
    for i in range(20):
        rng = np.random.default_rng(42_000 + i)
        y = crandn(rng, 24, 20)
        k_dim = int(rng.integers(2, 5))
        a = bm.random_stiefel(20, k_dim, rng)
        g_diag = np.ones(k_dim)
        s = bm.polar_retract(bm.euclid_grad(y, a, g_diag))
        vals = [bm.objective(y, (1 - u) * a.a + u * s.a, g_diag)
                for u in np.linspace(0.0, 1.0, 21)]
        if int(np.argmax(vals)) == 20:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits == 20 and elapsed < 30.0
    report(5, ok, f"convex-combination objective peaks at step 1 in {hits}/20 grids, "
                  f"{elapsed:.1f}s < 30s")


def test_criterion_06_eta_stationarity():
    rng = np.random.default_rng(43_000)
    # eta is nonnegative everywhere
    nonneg = True
    for _ in range(200):
        a = bm.random_stiefel(10, 3, rng)
        g = crandn(rng, 10, 3)
        if bm.optimality_eta(a, g) < 0:
            nonneg = False
    # constructed fixed points: diagonal-positive blocks
    fixed_ok = True
    rgrad_zero_ok = True
    for d in ([1.5, 0.7], [2.0, 1.0, 0.25]):
        k = len(d)
        t = 2 * k + 1
        y = np.zeros((k, t), dtype=complex)
        y[np.arange(k), np.arange(k)] = d
        a = bm.StiefelPoint(np.eye(t, k))
        grad = bm.euclid_grad(y, a, np.ones(k))
        eta = bm.optimality_eta(a, grad)
        if not eta < 1e-9 * bm.nuclear_norm(grad):
            fixed_ok = False
        if not bm.riemannian_grad(a, grad).norm < 1e-9 * np.linalg.norm(grad):
            rgrad_zero_ok = False
    # converged solves: residual Riemannian gradient is tiny
    worst_ratio = 0.0
    opts = SolverOptions(max_iters=500, eta_tol=1e-9, obj_rel_tol=1e-12)
    configs = [(64, 2, 60, 0.1, 0.0), (128, 3, 80, 0.2, 0.01),
               (256, 4, 100, 0.1, 0.001), (128, 4, 64, 0.3, 0.05),
               (64, 3, 48, 0.2, 0.0), (96, 2, 40, 0.15, 0.02)]
    for i, (m, k, t, theta, sig) in enumerate(configs):
        rng = np.random.default_rng(43_100 + i)
        x = bm.random_stiefel(t, k, rng).a.conj().T
        chan = bm.bernoulli_gaussian_channel(m, k, theta, rng)
        y = chan @ x + crandn(rng, m, t) * np.sqrt(sig)
        a, tr = bm.solve(y, np.ones(k), opts, rng)
        assert tr.stop_reason != "max_iters"
        g = bm.euclid_grad(y, a, np.ones(k))
        worst_ratio = max(worst_ratio, bm.riemannian_grad(a, g).norm / np.linalg.norm(g))
    ok = nonneg and fixed_ok and rgrad_zero_ok and worst_ratio < 1e-3
    report(6, ok, f"eta >= 0 everywhere; eta < 1e-9*||grad||_* at fixed points; "
                  f"converged ||grad_R||/||grad|| worst {worst_ratio:.2e} < 1e-3")


def test_criterion_07_noiseless_recovery():
    t0 = time.perf_counter()
    c = bm.build_constellation("qpsk")
    g = np.ones(4)
    opts = SolverOptions()
    n_pass_planted = 0
    n_pass_expected = 0
    for trial in range(100):
        rng = np.random.default_rng(44_000 + trial)
        frame = bm.build_frame(4, 100, c, rng)
        chan = bm.bernoulli_gaussian_channel(256, 4, 0.1, rng)
        y_bar = bm.synthesize_received(chan, frame.x, g, g, 0.0, rng)
        res = bm.detect(y_bar, g, frame.meta, c, opts, rng)
        start = frame.payload_start
        ser = bm.symbol_error_rate(res.symbol_indices[:, start:],
                                   frame.symbol_indices[:, start:])
        # Near-optimal reference: the objective at the data-aligned feasible
        # point (the realized channel's own spike mass), vs. the large-M
        # expected level gamma1*M*K*theta.
        planted = bm.objective(y_bar, bm.polar_retract(frame.x.conj().T), g)
        expected_level = bm.GAMMA1 * 256 * 4 * 0.1
        final = res.trace.final_objective
        if ser == 0.0 and final >= 0.9 * planted:
            n_pass_planted += 1
        if ser == 0.0 and final >= 0.9 * expected_level:
            n_pass_expected += 1
    elapsed = time.perf_counter() - t0
    ok = n_pass_planted >= 95 and elapsed < 120.0
    report(7, ok,
           f"noiseless recovery: SER=0 and objective >= 0.9x planted reference in "
           f"{n_pass_planted}/100 trials (>= 95 required); vs the large-M expected "
           f"level gamma1*M*K*theta instead: {n_pass_expected}/100 "
           f"(realization spread makes that normalizer unreachable in ~1/3 of "
           f"trials at M=256); {elapsed:.0f}s < 120s")


def test_criterion_08_noisy_bound_consistency():
    t0 = time.perf_counter()
    m, k, t, theta, sig = 2000, 8, 200, 0.2, 0.01
    _, upper = bm.theoretical_objective_bound(m, k, theta, np.full(k, sig))
    vals = []
    for trial in range(50):
        rng = np.random.default_rng(45_000 + trial)
        x = bm.random_stiefel(t, k, rng).a.conj().T
        chan = bm.bernoulli_gaussian_channel(m, k, theta, rng)
        y = chan @ x + crandn(rng, m, t) * np.sqrt(sig)
        phases = np.exp(2j * np.pi * rng.random(k))
        perm = rng.permutation(k)
        xi = np.zeros((k, k), dtype=complex)
        xi[np.arange(k), perm] = phases
        vals.append(bm.objective(y, x.conj().T @ xi, np.ones(k)))
    ratio = float(np.mean(vals)) / upper
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 1.0) < 0.02 and elapsed < 120.0
    report(8, ok, f"mean planted objective / closed-form upper = {ratio:.4f} "
                  f"(within 2%), {elapsed:.0f}s < 120s")


def test_criterion_09_convergence_directional_checks():
    t0 = time.perf_counter()
    opts = SolverOptions(max_iters=150, eta_tol=1e-9, obj_rel_tol=1e-12)
    base = SystemConfig(
        k_users=8, t_len=200, n_h=1024, n_v=1, theta=0.2,
        channel_model="bernoulli_gaussian", sigma_z2=0.05, solver=opts,
    )
    variants = {
        "base": base,
        "theta_half": replace(base, theta=0.1),
        "k_half": replace(base, k_users=4),
        "sigma_tenth": replace(base, sigma_z2=0.005),
    }
    out = run_convergence_experiment(variants, trials=30, base_seed=9)
    med = {name: float(np.median([iterations_to_level(tr, 0.9) for tr in r["traces"]]))
           for name, r in out.items()}
    elapsed = time.perf_counter() - t0
    ok = (med["theta_half"] <= med["base"]
          and med["k_half"] <= med["base"]
          and med["sigma_tenth"] <= med["base"]
          and elapsed < 300.0)
    report(9, ok, f"median iterations to 0.9x expected level: base {med['base']}, "
                  f"theta/2 {med['theta_half']}, K/2 {med['k_half']}, "
                  f"sigma^2/10 {med['sigma_tenth']} (all <= base), {elapsed:.0f}s < 300s")


def test_criterion_10_concentration_envelope():
    t0 = time.perf_counter()
    rows = run_concentration_experiment(
        [4, 8], [30, 36, 44, 54, 64, 80, 100, 125], delta_sq=0.1, trials=1000,
        base_seed=0,
    )
    checked = 0
    ok = True
    for r in rows:
        if r["t_len"] < r["crossover_t"]:
            continue
        checked += 1
        sigma = math.sqrt(max(r["theoretical"] * (1 - r["theoretical"]), 0.0) / r["trials"])
        if r["empirical"] > r["theoretical"] + 2 * sigma:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and checked >= 10 and elapsed < 120.0
    report(10, ok, f"empirical tail at or below the exponential envelope "
                   f"(C=0.416/0.464) at {checked} grid points beyond the "
                   f"crossover, 1000 trials each, {elapsed:.0f}s < 120s")


def test_criterion_11_evm_trends():
    t0 = time.perf_counter()
    cfg = SystemConfig(
        k_users=8, t_len=240, n_h=256, n_v=1, theta=0.1,
        channel_model="bernoulli_gaussian", trials=50, base_seed=11,
        solver=SolverOptions(max_iters=200),
    )
    snrs = [0.0, 10.0, 20.0, 30.0]
    records = list(run_sweep(cfg, "snr_db", snrs, methods=("l3", "l4")))
    assert all(r.error is None for r in records)
    means = {m: [float(np.mean([r.metrics.evm for r in records
                                if r.method == m and r.sweep_value == s]))
                 for s in snrs]
             for m in ("l3", "l4")}
    snr_monotone = all(b < a for a, b in zip(means["l3"], means["l3"][1:]))
    l3_beats_l4 = all(means["l3"][i] < means["l4"][i] for i in (1, 2, 3))

    cfg40 = SystemConfig(
        k_users=8, t_len=40, n_h=256, n_v=1, theta=0.1,
        channel_model="bernoulli_gaussian", snr_db=30.0, trials=50, base_seed=5,
        solver=SolverOptions(max_iters=200),
    )
    rec_plain = list(run_sweep(cfg40, "snr_db", [30.0], methods=("l3",)))
    cfg40p = replace(cfg40, solver=replace(cfg40.solver, precondition=True))
    rec_pre = list(run_sweep(cfg40p, "snr_db", [30.0], methods=("l3",)))
    med_plain = float(np.median([r.metrics.evm for r in rec_plain]))
    med_pre = float(np.median([r.metrics.evm for r in rec_pre]))
    pre_better = med_pre < med_plain
    elapsed = time.perf_counter() - t0
    ok = snr_monotone and l3_beats_l4 and pre_better and elapsed < 600.0
    report(11, ok,
           f"mean EVM strictly decreasing over SNR {[f'{v:.3g}' for v in means['l3']]}; "
           f"p=3 beats p=4 at 10/20/30 dB; T=40 median EVM preconditioned "
           f"{med_pre:.3g} < plain {med_plain:.3g}; {elapsed:.0f}s < 600s")


def test_criterion_12_ambiguity_round_trip():
    t0 = time.perf_counter()
    c = bm.build_constellation("qpsk")
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(46_000 + trial)
        k = int(rng.integers(2, 9))
        t = int(rng.integers(20, 60))
        frame = bm.build_frame(k, t, c, rng)
        phases = np.exp(2j * np.pi * rng.random(k))
        perm = rng.permutation(k)
        distorted = phases[:, np.newaxis] * frame.x[perm]
        x_hat, _ = bm.resolve_ambiguity(distorted, frame.meta, c)
        worst = max(worst, float(np.abs(x_hat - frame.x).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(12, ok, f"100 random phase-permutation distortions inverted exactly, "
                   f"worst entry error {worst:.2e} < 1e-9, {elapsed:.1f}s < 10s")


def test_criterion_13_cli_determinism(tmp_path):
    cfg = {
        "k_users": 4, "t_len": 60, "n_h": 64, "n_v": 1, "theta": 0.15,
        "channel_model": "bernoulli_gaussian", "trials": 3, "base_seed": 21,
        "solver": {"max_iters": 80},
        "sweep": {"param": "snr_db", "values": [10.0, 30.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out1),
                    "--methods", "l3,l4"])
    rc2 = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                    "--methods", "l3,l4"])
    identical = (out1 / "trials.jsonl").read_bytes() == (out2 / "trials.jsonl").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    report(13, ok, "two simulate runs with identical config and seed produced "
                   "byte-identical trials.jsonl")
