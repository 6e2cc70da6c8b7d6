"""Direct timings of the kernels that ``solve`` inlines, so no wrapper reaches them.

Every kernel is fed the shapes of its workload and the arrays of one
scenario of that workload, drawn from the run's seed: the solver input
(preconditioned when the workload preconditions), a Haar starting point, and
the gradient there.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

MIN_REPS = 15
MAX_REPS = 2000
BUDGET_S = 0.15


def _time_us(fn: Callable[[], object]) -> List[float]:
    fn()
    fn()
    samples: List[float] = []
    spent = 0.0
    while len(samples) < MAX_REPS and (len(samples) < MIN_REPS or spent < BUDGET_S):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        samples.append(dt * 1e6)
        spent += dt
    return samples


def l3_iteration_cost(m: int, t: int, k: int) -> Dict[str, float]:
    """Computed (not measured) flops and bytes of one l3 iteration.

    Two complex GEMMs, Ybar A and Ybar^H W, at 8*M*T*K real flops each,
    plus the thin T x K complex SVD, counted as four times the real R-SVD
    cost 6*T*K^2 + 20*K^3 (Golub and Van Loan).  Bytes are one read of the
    M x T complex128 block per GEMM.
    """
    return {
        "flops": 2 * 8.0 * m * t * k + 4.0 * (6.0 * t * k * k + 20.0 * k**3),
        "bytes": 2 * 16.0 * m * t,
    }


def measure(bm, cfg, scenario, rng: np.random.Generator) -> Tuple[Dict[str, List[float]], Dict[str, str]]:
    """Per-call samples in microseconds for each kernel, and the kernels that raised.

    A kernel that rejects its workload's inputs with ``ValueError`` gets no
    samples; its error message is returned instead, so the caller can show it.
    """
    det, man, chan = bm.detector, bm.manifold, bm.channel
    k, t = cfg.k_users, cfg.t_len
    y, g = scenario.y_bar, scenario.g_diag
    y_in = det.precondition(y, k_users=k) if cfg.solver.precondition else y
    a0 = man.random_stiefel(t, k, rng)
    grad = det.euclid_grad(y_in, a0, g)
    u, _, vh = np.linalg.svd(grad, full_matrices=False)
    polar = u @ vh
    geom = cfg.geometry
    u_m = chan.steering_matrix(geom)
    y_spatial = u_m @ y
    kernels = {
        "euclid_grad": lambda: det.euclid_grad(y_in, a0, g),
        "objective": lambda: det.objective(y_in, a0, g),
        "iterate": lambda: det.iterate(a0, y_in, g),
        "polar_retract": lambda: man.polar_retract(grad),
        "stiefel_point": lambda: man.StiefelPoint(polar),
        "random_stiefel": lambda: man.random_stiefel(t, k, rng),
        "riemannian_grad": lambda: man.riemannian_grad(a0, grad),
        "steering_matrix": lambda: chan.steering_matrix(geom),
        "to_angular": lambda: chan.to_angular(y_spatial, u_m),
        "precondition": lambda: det.precondition(y, k_users=k),
    }
    samples: Dict[str, List[float]] = {}
    errors: Dict[str, str] = {}
    for name, fn in kernels.items():
        try:
            samples[name] = _time_us(fn)
        except ValueError as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
    return samples, errors
