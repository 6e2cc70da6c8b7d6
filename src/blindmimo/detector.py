"""Blind data detection by entrywise l3-norm maximization over the Stiefel manifold.

The detector recovers the transmitted frame from the angular-domain received
block Ybar alone (plus the known large-scale fading G) by solving

    max_{A in St_K(C^T)}  sum |Ybar A G^(-1/2)|^p,    p = 3,

with the parameter-free fixed-point iteration

    A <- Polar( p * Ybar^H (|W|^(p-2) . W) G^(-1/2) ),   W = Ybar A G^(-1/2),

which is a Frank-Wolfe step whose optimal step size is exactly 1 because the
objective is convex in A.  The conjugate transpose of the solution estimates
the frame up to a per-row phase and a row permutation; both are resolved
from the reference symbol and the user-ID headers.

A block is the dense M x T matrix Ybar or ``precondition``'s pair (u, vh) of
its rank-K factors, which is never multiplied out; every function that takes
a block takes either form.

The iteration and its projected-gradient baseline share one ascent loop;
they differ only in their step: the polar factor of the gradient, or a
backtracking line search along the Riemannian gradient.  The gradient's
singular values (for eta) and its polar factor come from ``manifold._polar``,
the only place that chooses between the eigendecomposition of its K x K Gram
matrix and its compact SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .manifold import (
    RankDeficientError,
    StiefelPoint,
    _polar,
    _rank_deficient,
    nuclear_norm,
    polar_retract,
    random_stiefel,
    real_inner,
    riemannian_grad,
)
from .signal import Constellation, FrameMeta

__all__ = [
    "SolverOptions",
    "SolveTrace",
    "AmbiguityResolution",
    "DetectionResult",
    "DemodResult",
    "DegenerateGradientError",
    "objective",
    "euclid_grad",
    "iterate",
    "optimality_eta",
    "solve",
    "resolve_ambiguity",
    "precondition",
    "postprocess",
    "demodulate",
    "detect",
    "riemannian_gd_baseline",
    "pilot_zf_baseline",
]

# Absolute slack allowed when asserting the monotone-ascent guarantee.
MONOTONE_SLACK = 1e-12

# Proximal-gradient budget of the pilot baseline's channel estimate.
_PILOT_MAX_ITERS = 500
_PILOT_REL_TOL = 1e-8


class DegenerateGradientError(RuntimeError):
    """The solver hit a rank-deficient gradient twice in a row."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the manifold solvers; the exponent is each solver's ``p_exponent``.

    The iteration stops at relative first-order optimality
    eta(A_j) < eta_tol * max(eta(A_0), 1), or when the relative objective
    increase drops below ``obj_rel_tol``, or after ``max_iters`` update
    steps, whichever happens first.

    Zero tolerances keep iterating at the converged plateau, where float64
    objective evaluations fluctuate by ~eps * objective * log(T); keep
    obj_rel_tol >= 1e-12 if the trace's monotone invariant matters.
    """

    max_iters: int = 200
    eta_tol: float = 1e-6
    obj_rel_tol: float = 1e-10
    precondition: bool = False

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.eta_tol < 0 or self.obj_rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration diagnostics of one solver run.

    ``objective_per_iter[j]`` and ``eta_per_iter[j]`` are measured at the
    j-th iterate, including the returned one, so ``iters_run`` (update
    steps) is the trace length minus one.  The objective sequence must be
    non-decreasing (guaranteed ascent) up to 1e-12 absolute slack.
    ``n_evals`` counts objective/gradient evaluations, the dominant cost, for
    cross-solver comparisons.
    ``restarts`` counts fresh random starts after a rank-deficient gradient
    (``solve`` makes at most one).
    """

    objective_per_iter: np.ndarray
    eta_per_iter: np.ndarray
    stop_reason: str
    n_evals: int = 0
    restarts: int = 0

    def __post_init__(self) -> None:
        obj = np.asarray(self.objective_per_iter, dtype=np.float64)
        eta = np.asarray(self.eta_per_iter, dtype=np.float64)
        if obj.shape != eta.shape or obj.ndim != 1 or obj.size < 1:
            raise ValueError("objective and eta traces must be equal-length vectors")
        if self.stop_reason not in ("eta_tol", "obj_tol", "max_iters"):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        drops = np.diff(obj)
        if drops.size and drops.min() < -MONOTONE_SLACK:
            raise ValueError(
                f"objective trace decreased by {-drops.min():.3e}, ascent guarantee violated"
            )
        object.__setattr__(self, "objective_per_iter", obj)
        object.__setattr__(self, "eta_per_iter", eta)

    @property
    def iters_run(self) -> int:
        return len(self.objective_per_iter) - 1

    @property
    def final_objective(self) -> float:
        return float(self.objective_per_iter[-1])

    @property
    def final_eta(self) -> float:
        return float(self.eta_per_iter[-1])


def _as_matrix(a: Union[StiefelPoint, np.ndarray]) -> np.ndarray:
    return a.a if isinstance(a, StiefelPoint) else np.asarray(a, dtype=np.complex128)


def _positive_g(g_diag: np.ndarray, k: int) -> np.ndarray:
    g = np.asarray(g_diag, dtype=np.float64)
    if g.shape != (k,) or not np.all(g > 0):
        raise ValueError("g_diag must be a strictly positive vector of length K")
    return g


def _inv_sqrt_g(g_diag: np.ndarray, k: int) -> np.ndarray:
    return 1.0 / np.sqrt(_positive_g(g_diag, k))


Block = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
Factors = Tuple[np.ndarray, ...]


def _factors(y_bar: Block) -> Factors:
    """The block as the factors whose product it is: (Ybar,), or the pair (u, vh) as given."""
    return tuple(np.asarray(f, dtype=np.complex128)
                 for f in (y_bar if isinstance(y_bar, tuple) else (y_bar,)))


def _apply(fs: Factors, x: np.ndarray) -> np.ndarray:
    """The product of the factors ``fs`` with ``x``, formed right to left: (M + T) K^2 on a pair."""
    for f in reversed(fs):
        x = f @ x
    return x


def _point_inputs(
    y_bar: Block, a: Union[StiefelPoint, np.ndarray], g_diag: np.ndarray
) -> Tuple[Factors, np.ndarray, np.ndarray]:
    am = _as_matrix(a)
    y = _factors(y_bar)
    if y[-1].shape[1] != am.shape[0]:
        raise ValueError(f"dimension mismatch: y_bar has {y[-1].shape[1]} columns, a is {am.shape}")
    return y, am, _inv_sqrt_g(g_diag, am.shape[1])


def _evaluate(
    y: Factors, a: np.ndarray, isg: np.ndarray, p: int, yh: Optional[Factors] = None
) -> Tuple[float, Optional[np.ndarray]]:
    """The objective at ``a`` and, given the adjoint's factors ``yh``, the gradient there."""
    w = _apply(y, a) * isg[np.newaxis, :]
    mag = np.abs(w)
    grad = None if yh is None else p * _apply(yh, mag ** (p - 2) * w) * isg[np.newaxis, :]
    return float((mag**p).sum()), grad


def _gap(nuclear: float, a: np.ndarray, grad: np.ndarray) -> float:
    return max(nuclear - real_inner(a, grad), 0.0)


def objective(
    y_bar: Block,
    a: Union[StiefelPoint, np.ndarray],
    g_diag: np.ndarray,
    p_exponent: int = 3,
) -> float:
    """Entrywise p-norm objective sum |Ybar A G^(-1/2)|^p."""
    y, am, isg = _point_inputs(y_bar, a, g_diag)
    return _evaluate(y, am, isg, p_exponent)[0]


def euclid_grad(
    y_bar: Block,
    a: Union[StiefelPoint, np.ndarray],
    g_diag: np.ndarray,
    p_exponent: int = 3,
) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the objective at ``a``.

    Returns p * Ybar^H (|W|^(p-2) . W) G^(-1/2) with W = Ybar A G^(-1/2);
    its real inner product with a direction equals the first-order change of
    the objective along that direction.
    """
    y, am, isg = _point_inputs(y_bar, a, g_diag)
    return _evaluate(y, am, isg, p_exponent, tuple(f.conj().T for f in reversed(y)))[1]


def iterate(
    a_j: StiefelPoint,
    y_bar: Block,
    g_diag: np.ndarray,
    p_exponent: int = 3,
) -> StiefelPoint:
    """One ascent step: polar retraction of the Euclidean gradient.

    The step never decreases the objective.  A rank-deficient gradient
    raises RankDeficientError, which ``solve`` treats as a restart signal.
    """
    return polar_retract(euclid_grad(y_bar, a_j, g_diag, p_exponent))


def optimality_eta(a: Union[StiefelPoint, np.ndarray], grad: np.ndarray) -> float:
    """First-order optimality gap eta = ||grad||_* - Re<a, grad>.

    This equals the largest linearized improvement max_A Re<A - a, grad>
    over the Stiefel manifold (the maximum of Re<grad, A> is the nuclear
    norm, attained at the polar factor), so it is zero exactly at stationary
    points.  Tiny negative round-off is clamped to honor the nonnegative
    contract.
    """
    am = _as_matrix(a)
    g = np.asarray(grad, dtype=np.complex128)
    if g.shape != am.shape:
        raise ValueError(f"shape mismatch: grad {g.shape} vs point {am.shape}")
    return _gap(nuclear_norm(g), am, g)


def _solver_inputs(y_bar: Block, g_diag: np.ndarray, p: int) -> Tuple[Factors, np.ndarray]:
    if p not in (3, 4):
        raise ValueError("p_exponent must be 3 or 4")
    y = _factors(y_bar)
    k = np.asarray(g_diag).shape[0]
    t = y[-1].shape[1]
    if t < k:
        raise ValueError(f"need T >= K, got T={t}, K={k}")
    if not all(np.linalg.norm(f) > 0 for f in y):
        raise ValueError("received block is identically zero")
    return y, _inv_sqrt_g(g_diag, k)


def _ascend(
    y: Factors,
    isg: np.ndarray,
    a: StiefelPoint,
    opts: SolverOptions,
    p: int,
    step: Callable[..., Tuple[Optional[StiefelPoint], int]],
    on_iterate: Optional[Callable[[StiefelPoint, int], None]] = None,
) -> Tuple[StiefelPoint, SolveTrace]:
    """The ascent loop both solvers share; only ``step`` differs.

    Each iterate costs one objective/gradient evaluation and one
    factorization of the gradient through ``_polar``, which gives eta; then
    come ``on_iterate`` and the stop rule (``eta_tol``, ``obj_tol``,
    ``max_iters``).  Otherwise ``step(a, obj, grad, polar)`` returns the next
    iterate, or None (no ascent: stop with ``obj_tol``), and the objective
    evaluations it spent; ``polar()`` forms the gradient's polar factor,
    raising RankDeficientError when the gradient is rank deficient.  An
    all-zero gradient raises RankDeficientError at once: its eta of 0 would
    otherwise pass the stop rule at objective 0, the minimum.
    """
    yh = tuple(f.conj().T for f in reversed(y))  # the adjoint's factors
    objs: list[float] = []
    etas: list[float] = []
    n_evals = 0
    for j in range(opts.max_iters + 1):
        obj, grad = _evaluate(y, a.a, isg, p, yh)
        s, polar = _polar(grad)
        if s[0] == 0.0:
            raise RankDeficientError("the gradient vanishes")
        objs.append(obj)
        etas.append(_gap(float(s.sum()), a.a, grad))
        n_evals += 1
        if on_iterate is not None:
            on_iterate(a, j)
        if etas[-1] < opts.eta_tol * max(etas[0], 1.0):
            stop_reason = "eta_tol"
        elif j >= 1 and objs[-1] - objs[-2] < opts.obj_rel_tol * max(objs[-2], 1e-300):
            stop_reason = "obj_tol"
        elif j == opts.max_iters:
            stop_reason = "max_iters"
        else:
            nxt, spent = step(a, obj, grad, polar=polar)
            n_evals += spent
            if nxt is not None:
                a = nxt
                continue
            stop_reason = "obj_tol"
        break
    return a, SolveTrace(np.array(objs), np.array(etas), stop_reason, n_evals)


def solve(
    y_bar: Block,
    g_diag: np.ndarray,
    opts: SolverOptions,
    rng: np.random.Generator,
    a0: Optional[StiefelPoint] = None,
    on_iterate: Optional[Callable[[StiefelPoint, int], None]] = None,
    p_exponent: int = 3,
) -> Tuple[StiefelPoint, SolveTrace]:
    """Run the parameter-free fixed-point iteration from a random start.

    Each step computes the gradient, factors it once, reads the optimality
    gap eta off its singular values, and retracts onto its polar factor.  A
    rank deficient gradient triggers one automatic restart from a fresh
    random point, counted in the trace's ``restarts``; a second failure
    raises DegenerateGradientError.

    Parameters
    ----------
    y_bar
        The dense block, or ``precondition``'s pair (u, vh) of its factors.
    a0
        Optional initial point (default: Haar-uniform draw from ``rng``).
    on_iterate
        Optional hook called as ``on_iterate(point, j)`` at every visited
        iterate, including the initial one.
    p_exponent
        The objective exponent: 3 is the proposed detector, 4 the
        higher-order baseline; any other value raises ValueError.
    """
    y, isg = _solver_inputs(y_bar, g_diag, p_exponent)
    for restarts, start in enumerate((a0, None)):
        a = start if start is not None else random_stiefel(y[-1].shape[1], isg.size, rng)
        try:
            a, trace = _ascend(y, isg, a, opts, p_exponent,
                               lambda *_, polar: (StiefelPoint(polar()), 0), on_iterate)
        except RankDeficientError:
            continue
        return a, replace(trace, restarts=restarts)
    raise DegenerateGradientError(
        "gradient rank deficient after one restart; perturb the input"
    )


@dataclass(frozen=True)
class AmbiguityResolution:
    """How the phase-permutation ambiguity was undone.

    ``phase_corrections[i]`` is the unit-modulus factor applied to solver row
    i before matching; ``permutation[k]`` is the solver row assigned to user
    k; ``match_distances[k]`` is that row's header distance to user k's known
    ID header.  ``flagged_rows`` lists rows whose reference entry was too
    small to trust for phase recovery (assigned phase 1).
    """

    phase_corrections: np.ndarray
    permutation: np.ndarray
    match_distances: np.ndarray
    flagged_rows: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        perm = np.asarray(self.permutation, dtype=np.int64)
        k = perm.size
        if sorted(perm.tolist()) != list(range(k)):
            raise ValueError("permutation must be a bijection on 0..K-1")
        ph = np.asarray(self.phase_corrections, dtype=np.complex128)
        if ph.shape != (k,) or np.abs(np.abs(ph) - 1.0).max() >= 1e-12:
            raise ValueError("phase corrections must be unit modulus")
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "phase_corrections", ph)


def resolve_ambiguity(
    x_est: np.ndarray,
    frame_meta: FrameMeta,
    c: Constellation,
) -> Tuple[np.ndarray, AmbiguityResolution]:
    """Undo the per-row phase and the row permutation of a blind estimate.

    ``x_est`` is the K x T frame estimate: the conjugate transpose of the
    solver's T x K point, or its reprojection after preconditioning.  Step 1
    rotates each row so its first entry aligns with the known common
    reference symbol.  Step 2 compares each corrected row's header segment
    with every user's known ID header and solves the minimum cost
    assignment, which always yields a true permutation; rows are then
    reordered so row k is user k.

    Rows whose reference entry has magnitude at most 1e-12 cannot anchor a
    phase; they are flagged and left unrotated.
    """
    x_tilde = np.asarray(x_est, dtype=np.complex128)
    k, t = x_tilde.shape
    if frame_meta.k_users != k:
        raise ValueError("estimate and frame metadata disagree on K")
    ref = complex(frame_meta.ref_value)
    first = x_tilde[:, 0]
    small = np.abs(first) <= 1e-12
    safe_first = np.where(small, 1.0, first)
    phases = ref * np.abs(safe_first) / (abs(ref) * safe_first)
    phases = np.where(small, 1.0 + 0.0j, phases)
    x_tilde = phases[:, np.newaxis] * x_tilde

    hlen = frame_meta.header_len
    known = c.points[frame_meta.id_headers]  # (K, hlen) in symbol units
    got = x_tilde[:, 1 : 1 + hlen] * np.sqrt(t)
    # cost[i, k] = distance between solver row i's header and user k's header
    diff = got[:, np.newaxis, :] - known[np.newaxis, :, :]
    cost = np.linalg.norm(diff, axis=2)
    rows, users = linear_sum_assignment(cost)
    perm = np.empty(k, dtype=np.int64)
    perm[users] = rows
    x_hat = x_tilde[perm]
    resolution = AmbiguityResolution(
        phase_corrections=phases,
        permutation=perm,
        match_distances=cost[perm, np.arange(k)],
        flagged_rows=tuple(int(i) for i in np.flatnonzero(small)),
    )
    return x_hat, resolution


def precondition(y_bar: np.ndarray, k_users: int) -> Tuple[np.ndarray, np.ndarray]:
    """Replace the dense Ybar by the polar factor of its top K singular directions.

    Useful when the frame is too short for its Gram matrix to concentrate:
    the block U_K V_K^H has K unit singular values and restores an exactly
    orthonormal row space for the solver to work against.  The procedure's
    whole premise is that the preconditioned block is a rank-K signal factor
    plus a small error; keeping the trailing noise-only directions at unit
    gain instead plants dense spurious attractors that derail the solver.

    Returns that block as the pair u = Ybar V_K Sigma_K^-1 (M x K) and
    vh = V_K^H (K x T), from ``_polar(Ybar, K)``.  A block whose K-th singular
    value is at most 1e-10 of the largest (or that has fewer than K) raises
    RankDeficientError; ``k_users`` below 1 raises ValueError.
    """
    if k_users < 1:
        raise ValueError(f"k_users must be at least 1, got {k_users}")
    s, factor = _polar(np.asarray(y_bar, dtype=np.complex128), k_users)
    if s.size < k_users or s[-1] <= 1e-10 * s[0]:
        raise RankDeficientError(f"received block does not carry {k_users} usable directions")
    return factor()


def postprocess(y_bar_pre: Block, x_hat_pre: np.ndarray, y_bar: np.ndarray) -> np.ndarray:
    """Map a preconditioned-domain estimate back to the data domain.

    Least-squares reprojection Xhat = (D^H D)^(-1) D^H Ybar with
    D = Ybar_pre Xhat_pre^H, followed by row normalization to unit l2 norm,
    which removes the unknown scalar left over from preconditioning (frame
    rows have unit norm by construction).  ``y_bar_pre`` is either block
    form, so a pair gives D = u (vh Xhat_pre^H); ``y_bar`` is dense.
    """
    d = _apply(_factors(y_bar_pre), np.asarray(x_hat_pre).conj().T)
    x_hat = _least_squares(d, np.asarray(y_bar), "reprojection matrix D")
    norms = np.linalg.norm(x_hat, axis=1, keepdims=True)
    if not np.all(norms > 0):
        raise RankDeficientError("reprojected estimate has an all-zero row")
    return x_hat / norms


def _least_squares(d: np.ndarray, y: np.ndarray, name: str, cause: str = "") -> np.ndarray:
    """(D^H D)^(-1) D^H Y; a wide or rank-deficient D raises RankDeficientError citing ``cause``."""
    if d.shape[0] < d.shape[1] or _rank_deficient(np.linalg.svd(d, compute_uv=False)):
        raise RankDeficientError(f"{name} is rank deficient{cause}")
    dh = d.conj().T
    return np.linalg.solve(dh @ d, dh @ y)


class DemodResult(NamedTuple):
    """Nearest-point decisions: labels and Gray-decoded bits."""

    indices: np.ndarray
    bits: np.ndarray


def demodulate(x_hat: np.ndarray, c: Constellation) -> DemodResult:
    """Map sqrt(T) * x_hat entrywise to the nearest constellation point.

    Ties break toward the smallest Gray label.  Bits are recovered through
    the Gray map.
    """
    x = np.asarray(x_hat, dtype=np.complex128)
    v = x * np.sqrt(x.shape[1])
    dist = np.abs(v[..., np.newaxis] - c.points[np.newaxis, np.newaxis, :])
    indices = np.argmin(dist, axis=-1)
    return DemodResult(indices, c.bits_of(indices))


@dataclass(frozen=True)
class DetectionResult:
    """Full output of the blind detection pipeline for one block."""

    x_hat: np.ndarray
    symbol_indices: np.ndarray
    bits: np.ndarray
    trace: SolveTrace
    resolution: AmbiguityResolution

    def __post_init__(self) -> None:
        norms = np.linalg.norm(np.asarray(self.x_hat), axis=1)
        if not (np.all(norms > 0) and np.all(norms <= 1.5)):
            raise ValueError("x_hat row norms outside the sane range (0, 1.5]")


def detect(
    y_bar: np.ndarray,
    g_diag: np.ndarray,
    frame_meta: FrameMeta,
    c: Constellation,
    opts: SolverOptions,
    rng: np.random.Generator,
    solver: Callable[..., Tuple[StiefelPoint, SolveTrace]] = solve,
    p_exponent: int = 3,
) -> DetectionResult:
    """End-to-end blind detection: solve, resolve ambiguity, demodulate.

    ``solver`` (``solve`` or ``riemannian_gd_baseline``) maximizes the
    ``p_exponent`` objective (3 or 4) on the dense block ``y_bar``, or with
    ``opts.precondition`` on ``precondition``'s pair, whose estimate is
    reprojected onto ``y_bar`` before ambiguity resolution.
    """
    k = np.asarray(g_diag).shape[0]
    if opts.precondition:
        y_in = precondition(y_bar, k_users=k)
    else:
        y_in = y_bar
    a_final, trace = solver(y_in, g_diag, opts, rng, p_exponent=p_exponent)
    x_est = a_final.a.conj().T
    if opts.precondition:
        x_est = postprocess(y_in, x_est, y_bar)
    x_hat, resolution = resolve_ambiguity(x_est, frame_meta, c)
    demod = demodulate(x_hat, c)
    return DetectionResult(
        x_hat=x_hat,
        symbol_indices=demod.indices,
        bits=demod.bits,
        trace=trace,
        resolution=resolution,
    )


def riemannian_gd_baseline(
    y_bar: Block,
    g_diag: np.ndarray,
    opts: SolverOptions,
    rng: np.random.Generator,
    a0: Optional[StiefelPoint] = None,
    p_exponent: int = 3,
) -> Tuple[StiefelPoint, SolveTrace]:
    """Projected-gradient ascent over the Stiefel manifold with backtracking.

    Each step retracts A + tau * grad_R with tau found by halving from 1
    until the objective increases (at most 30 halvings, else it stops with
    ``obj_tol``); that step is all it changes in ``solve``'s ascent loop.
    Kept as a reference solver: for the same ``p_exponent`` (3 or 4) it
    reaches the same stationary values as ``solve`` but spends extra
    evaluations on the line search.
    """
    y, isg = _solver_inputs(y_bar, g_diag, p_exponent)

    def line_search(a, obj, grad, polar):
        direction = riemannian_grad(a, grad).xi
        spent = 0
        for halvings in range(30):
            try:
                cand = polar_retract(a.a + 0.5**halvings * direction)
            except RankDeficientError:
                continue
            spent += 1
            if objective(y, cand, g_diag, p_exponent) > obj:
                return cand, spent
        return None, spent

    a = a0 if a0 is not None else random_stiefel(y[-1].shape[1], isg.size, rng)
    return _ascend(y, isg, a, opts, p_exponent, line_search)


def _soft_threshold(v: np.ndarray, tau: Union[float, np.ndarray]) -> np.ndarray:
    """Complex soft-thresholding: shrink magnitudes by ``tau`` (scalar or per column), keep phases."""
    mag = np.abs(v)
    scale = np.maximum(0.0, 1.0 - tau / np.where(mag == 0, 1.0, mag))
    return v * scale


def pilot_zf_baseline(
    y_bar_train: np.ndarray,
    x_train: np.ndarray,
    y_bar_data: np.ndarray,
    g_diag: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Training-based reference: l1-regularized channel estimate, then zero forcing.

    The angular channel is estimated from pilots by proximal-gradient
    iterations (soft thresholding) on

        min_H  (1/2) ||Ytrain - H G^(1/2) Xtrain||_F^2 + lam * sum_k g_k ||h_k||_1

    with step 1 / L, L the squared spectral norm of the pilot operator, run
    for 500 iterations or until the relative update drops below 1e-8.  The
    weight lam * g_k makes the estimate independent of the scale of G (an
    unweighted lam zeroes it under log-distance fading, g_k ~ 1e-10).  Data
    is then detected by least squares against the estimated effective
    channel.
    """
    y_t = np.asarray(y_bar_train, dtype=np.complex128)
    x_t = np.asarray(x_train, dtype=np.complex128)
    if x_t.shape[1] < 1:
        raise ValueError("need at least one pilot symbol")
    k = x_t.shape[0]
    g = _positive_g(g_diag, k)
    sqrt_g = np.sqrt(g)
    b = x_t * sqrt_g[:, np.newaxis]
    lip = float(np.linalg.norm(b, 2)) ** 2
    if lip == 0.0:
        raise ValueError("pilot matrix is zero")
    step = 1.0 / lip
    h = np.zeros((y_t.shape[0], k), dtype=np.complex128)
    for _ in range(_PILOT_MAX_ITERS):
        resid = h @ b - y_t
        h_new = _soft_threshold(h - step * (resid @ b.conj().T), lam * step * g)
        change = np.linalg.norm(h_new - h)
        h = h_new
        if change <= _PILOT_REL_TOL * max(np.linalg.norm(h), 1e-300):
            break
    zeroed = np.flatnonzero(~h.any(axis=0)).tolist()  # a weak user can fall below lam * g_k
    cause = f"; the channel estimates of users {zeroed} are all zero" if zeroed else ""
    return _least_squares(h * sqrt_g, np.asarray(y_bar_data), "zero-forcing matrix", cause)

