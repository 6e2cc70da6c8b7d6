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
a block takes either form.  The gradient reads the block through transposed
views of those same factors, so no conjugate copy of it is ever made.

The iteration and its projected-gradient baseline share one ascent loop;
they differ only in their step: the polar factor of the gradient, or a
backtracking line search along the Riemannian gradient.  The gradient's
singular values (for eta) and its polar factor come from ``manifold._polar``,
and ``precondition``'s rank-K factors from ``manifold._top_factors``.

On the pair, ``solve`` iterates in the K-dimensional row space of vh: every
gradient there is vh^H C with C = p (u^H F) G^(-1/2), and
polar(vh^H C) = vh^H polar(C), so after the start every iterate is vh^H B
for a K x K unitary B.  The loop holds B, and each iteration costs two
M x K x K products and the SVD of the K x K matrix C, independent of T.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .manifold import (
    RankDeficientError,
    StiefelPoint,
    _check_orthonormal,
    _numerics,
    _polar,
    _rank_deficient,
    _top_factors,
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
    ``max_iters`` must be a positive integer, the tolerances finite numbers
    >= 0 and ``precondition`` a bool; a bool is not a number here.  Only
    ``detect`` reads ``precondition``: ``solve`` and ``riemannian_gd_baseline``
    solve the block they are given.
    """

    max_iters: int = 200
    eta_tol: float = 1e-6
    obj_rel_tol: float = 1e-10
    precondition: bool = False

    def __post_init__(self) -> None:
        if isinstance(n := self.max_iters, bool) or not isinstance(n, numbers.Integral) or n < 1:  # 40.0 fails
            raise ValueError(f"max_iters must be an integer of at least 1, got {n!r}")
        for name in ("eta_tol", "obj_rel_tol"):
            if isinstance(v := getattr(self, name), bool) or not (isinstance(v, numbers.Real) and 0 <= v < np.inf):
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")
        if not isinstance(self.precondition, (bool, np.bool_)):  # a JSON "false" would switch it on
            raise ValueError(f"precondition must be true or false, got {self.precondition!r}")


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
    (``solve`` makes at most one).  ``stop_reason`` is ``eta_tol``,
    ``obj_tol`` or ``max_iters`` (the stop rule), or ``no_ascent``: the step
    found no point that raises the objective (only the line search of
    ``riemannian_gd_baseline`` can fail so).
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
        if self.stop_reason not in ("eta_tol", "obj_tol", "max_iters", "no_ascent"):
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


def _positive_g(g_diag: np.ndarray, k: int) -> np.ndarray:
    g = np.asarray(g_diag, dtype=np.float64)
    if g.shape != (k,) or not np.all(g > 0):
        raise ValueError("g_diag must be a strictly positive vector of length K")
    return g


def _inv_sqrt_g(g_diag: np.ndarray, k: int) -> np.ndarray:
    """G^(-1/2) as a complex128 vector, cast once here rather than in every evaluation.

    ``_evaluate`` scales complex arrays by it in place.  NumPy multiplies a
    complex array by a float64 vector by casting the vector to complex128
    (x + 0j) and running the complex multiply, so the cast done once here
    gives the same bits.
    """
    return (1.0 / np.sqrt(_positive_g(g_diag, k))).astype(np.complex128)


Block = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
Factors = Tuple[np.ndarray, ...]


def _factors(y_bar: Block) -> Factors:
    """The block as the factors whose product it is: (Ybar,), or the pair (u, vh) as given.

    A factor that is not a 2-d matrix raises ValueError naming the shapes.
    """
    fs = tuple(np.asarray(f, dtype=np.complex128)
               for f in (y_bar if isinstance(y_bar, tuple) else (y_bar,)))
    if any(f.ndim != 2 for f in fs):
        shapes = " and ".join(str(f.shape) for f in fs)
        raise ValueError(f"y_bar must be a 2-d matrix or a pair (u, vh) of them, got shape {shapes}")
    return fs


def _apply(fs: Factors, x: np.ndarray) -> np.ndarray:
    """The product of the factors ``fs`` with ``x``, formed right to left: (M + T) K^2 on a pair."""
    for f in reversed(fs):
        x = f @ x
    return x


def _check_exponent(p: int) -> None:
    """Reject any exponent but 3 and 4, the only two ``_evaluate`` forms |W|^(p-2) for."""
    if p not in (3, 4):
        raise ValueError(f"p_exponent must be 3 or 4, got {p!r}")


def _point_inputs(
    y_bar: Block, a: np.ndarray, g_diag: np.ndarray, p: int
) -> Tuple[Factors, np.ndarray, np.ndarray]:
    _check_exponent(p)
    am = np.asarray(a, dtype=np.complex128)
    if am.ndim != 2:
        raise ValueError(f"a must be a T x K matrix, got shape {am.shape}")
    y = _factors(y_bar)
    if y[-1].shape[1] != am.shape[0]:
        raise ValueError(f"dimension mismatch: y_bar has {y[-1].shape[1]} columns, a is {am.shape}")
    return y, am, _inv_sqrt_g(g_diag, am.shape[1])


def _evaluate(
    y: Factors, a: np.ndarray, isg: np.ndarray, p: int, with_grad: bool = False
) -> Tuple[float, Optional[np.ndarray]]:
    """The objective at ``a`` and, ``with_grad``, the gradient there.

    ``isg`` is ``_inv_sqrt_g``'s complex128 G^(-1/2), so scaling W and the
    gradient by it casts nothing.  F = |W|^(p-2) . W is formed in W's own
    buffer, once |W| is taken, as W times mag (p = 3) or mag * mag (p = 4):
    bit-identical to the power, and to mag times W, since a real factor
    enters a complex product as x + 0j either way and both products commute
    exactly.  The objective sums (mag * mag) * mag or (mag * mag)^2: products,
    since a power took about 2.5x as long.
    Ybar^H F is formed as conj(Ybar^T conj(F)) through transposed views of the
    block's own factors, with no conjugate copy; it is bit-identical, since
    negating imaginary parts commutes exactly with every multiply and add.
    """
    w = _apply(y, a)
    w *= isg
    mag = np.abs(w)
    sq = mag * mag
    grad = None
    if with_grad:
        w *= mag if p == 3 else sq
        grad = np.conjugate(w, out=w)
        for x in y:
            grad = x.T @ grad
        np.conjugate(grad, out=grad)
        grad *= p
        grad *= isg
    sq *= mag if p == 3 else sq
    return float(sq.sum()), grad


def _gap(nuclear: float, a: np.ndarray, grad: np.ndarray) -> float:
    return max(nuclear - real_inner(a, grad), 0.0)


def objective(y_bar: Block, a: np.ndarray, g_diag: np.ndarray, p_exponent: int = 3) -> float:
    """Entrywise p-norm objective sum |Ybar A G^(-1/2)|^p, for p = 3 or 4."""
    y, am, isg = _point_inputs(y_bar, a, g_diag, p_exponent)
    return _evaluate(y, am, isg, p_exponent)[0]


def euclid_grad(y_bar: Block, a: np.ndarray, g_diag: np.ndarray, p_exponent: int = 3) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the objective at ``a``.

    Returns p * Ybar^H (|W|^(p-2) . W) G^(-1/2) with W = Ybar A G^(-1/2);
    its real inner product with a direction equals the first-order change of
    the objective along that direction.  Ybar^H is read through transposed
    views of the block's factors, so the call copies no block.
    """
    y, am, isg = _point_inputs(y_bar, a, g_diag, p_exponent)
    return _evaluate(y, am, isg, p_exponent, with_grad=True)[1]


def iterate(a_j: np.ndarray, y_bar: Block, g_diag: np.ndarray, p_exponent: int = 3) -> np.ndarray:
    """One ascent step: polar retraction of the Euclidean gradient.

    The step never decreases the objective.  A rank-deficient gradient
    raises RankDeficientError, which ``solve`` treats as a restart signal.
    """
    return polar_retract(euclid_grad(y_bar, a_j, g_diag, p_exponent))


def optimality_eta(a: np.ndarray, grad: np.ndarray) -> float:
    """First-order optimality gap eta = ||grad||_* - Re<a, grad>.

    This equals the largest linearized improvement max_A Re<A - a, grad>
    over the Stiefel manifold (the maximum of Re<grad, A> is the nuclear
    norm, attained at the polar factor), so it is zero exactly at stationary
    points.  Tiny negative round-off is clamped to honor the nonnegative
    contract.
    """
    am = np.asarray(a, dtype=np.complex128)
    g = np.asarray(grad, dtype=np.complex128)
    if g.shape != am.shape:
        raise ValueError(f"shape mismatch: grad {g.shape} vs point {am.shape}")
    return _gap(nuclear_norm(g), am, g)


def _norms(fs: Factors) -> list:
    """The factors' Frobenius norms, taken with overflow silenced; a NaN or inf entry raises ValueError.

    A norm that overflows is told apart from a non-finite entry by testing
    the entries then only.
    """
    with np.errstate(over="ignore"):
        norms = [np.linalg.norm(f) for f in fs]
    for f, norm in zip(fs, norms):
        if not np.isfinite(norm) and not np.isfinite(f).all():  # the SVD would not converge on it
            raise ValueError(f"received block must be finite, got norm {norm}")
    return norms


def _solver_inputs(y_bar: Block, g_diag: np.ndarray, p: int) -> Tuple[Factors, np.ndarray]:
    """The block's factors and G^(-1/2), for a loop that runs inside ``_numerics()``.

    A NaN or inf entry, an all-zero block and T < K raise ValueError, and so
    does a block too large for the objective: with B the product of the
    factors' Frobenius norms times max G^(-1/2), every entry of W is at most
    B, so the objective is at most B^p and the gradient's norm at most p B^p,
    and B must keep p B^p finite (B at most 3.9e102 for p = 3, 8.2e76 for
    p = 4; ``SystemConfig``'s 1e30 caps keep B far below either).  Gram
    matrices of the gradient, and of rgd's steps, are at most 4 p^2 B^(2p);
    past the B that keeps that finite (1.3e51 for p = 3, 2.0e38 for p = 4)
    one can overflow, which ``_numerics()`` lets pass and which sends
    ``_polar`` to the SVD.
    """
    _check_exponent(p)
    y = _factors(y_bar)
    isg = _inv_sqrt_g(g_diag, np.size(g_diag))  # a vector of any length K
    t, k = y[-1].shape[1], isg.size
    if t < k:
        raise ValueError(f"need T >= K, got T={t}, K={k}")
    norms = _norms(y)
    if not all(norms):
        raise ValueError("received block is identically zero")
    limit = (np.finfo(np.float64).max / p) ** (1.0 / p)
    if not (scale := math.prod(norms) * isg.real.max()) <= limit:
        raise ValueError(
            f"received block too large: ||Ybar||_F max G^(-1/2) = {scale:.3e} exceeds {limit:.3e}, "
            f"past which the p = {p} objective and gradient can overflow; rescale it"
        )
    return y, isg


def _ascend(
    y: Factors,
    isg: np.ndarray,
    a: np.ndarray,
    opts: SolverOptions,
    p: int,
    step: Callable[..., Tuple[Optional[np.ndarray], int]],
    on_iterate: Optional[Callable[[np.ndarray, int], None]] = None,
    vh: Optional[np.ndarray] = None,
    restarts: int = 0,
) -> Tuple[np.ndarray, SolveTrace]:
    """The ascent loop both solvers share; only ``step`` differs.

    Each iterate costs one objective/gradient evaluation, whose two products
    both read the one stored block, and one factorization of the gradient
    through ``_polar``, which gives eta; then come ``on_iterate`` and the
    stop rule (``eta_tol``, ``obj_tol``, ``max_iters``).  Otherwise
    ``step(a, obj, grad, polar)`` returns the next iterate, or None (it
    found no ascent: stop with ``no_ascent``), and the objective evaluations
    it spent;
    ``polar()`` forms the gradient's polar factor,
    raising RankDeficientError when the gradient is rank deficient.  An
    all-zero gradient raises RankDeficientError at once: its eta of 0 would
    otherwise pass the stop rule at objective 0, the minimum.  Iterates are
    plain arrays, checked by ``_check_orthonormal`` once at the start and as
    ``step`` returns each (drift raises ValueError, never a restart);
    ``on_iterate`` gets a read-only view of each.

    With ``vh`` (K x T, orthonormal rows), ``y`` is the pair's left factor
    (u,) and the loop works on x = vh A, exact because every quantity reads
    A only through vh A: W = u x G^(-1/2), the gradient's coordinates
    p (u^H F) G^(-1/2) (its singular values, and Re<x, coordinates> =
    Re<A, gradient>), and the step, whose polar factor is the next x.  The
    start stays the T x K point ``a``; each later iterate is formed as
    vh^H x, and checked, only for ``on_iterate`` and once at return.
    The trace carries ``restarts``, the caller's count of earlier starts.
    """
    a = _check_orthonormal(a)
    x = a if vh is None else vh @ a

    def point(j: int) -> np.ndarray:
        """Iterate j as a T x K array."""
        return a if j == 0 else x if vh is None else _check_orthonormal(vh.conj().T @ x)

    objs: list[float] = []
    etas: list[float] = []
    n_evals = 0
    for j in range(opts.max_iters + 1):
        obj, grad = _evaluate(y, x, isg, p, with_grad=True)
        s, polar = _polar(grad)
        if s[0] == 0.0:
            raise RankDeficientError("the gradient vanishes")
        objs.append(obj)
        etas.append(_gap(float(s.sum()), x, grad))
        n_evals += 1
        if on_iterate is not None:
            view = point(j).view()
            view.setflags(write=False)
            on_iterate(view, j)
        if etas[-1] < opts.eta_tol * max(etas[0], 1.0):
            stop_reason = "eta_tol"
        elif j >= 1 and objs[-1] - objs[-2] < opts.obj_rel_tol * max(objs[-2], 1e-300):
            stop_reason = "obj_tol"
        elif j == opts.max_iters:
            stop_reason = "max_iters"
        else:
            nxt, spent = step(x, obj, grad, polar=polar)
            n_evals += spent
            if nxt is not None:
                x = _check_orthonormal(nxt)
                continue
            stop_reason = "no_ascent"
        break
    return point(j), SolveTrace(np.array(objs), np.array(etas), stop_reason, n_evals, restarts)


def solve(
    y_bar: Block,
    g_diag: np.ndarray,
    opts: SolverOptions,
    rng: np.random.Generator,
    a0: Optional[np.ndarray] = None,
    on_iterate: Optional[Callable[[np.ndarray, int], None]] = None,
    p_exponent: int = 3,
) -> Tuple[np.ndarray, SolveTrace]:
    """Run the parameter-free fixed-point iteration from a random start.

    Each step computes the gradient, factors it once, reads the optimality
    gap eta off its singular values, and retracts onto its polar factor.  A
    rank deficient gradient triggers one automatic restart from a fresh
    random point, counted in the trace's ``restarts``; a second failure
    raises DegenerateGradientError.

    On the pair, the start is drawn and checked in T-space as on the dense
    block; from there the loop iterates the K x K coordinates vh A (see
    ``_ascend``), so an iteration costs two M x K x K products and a K x K
    SVD, independent of T.

    Parameters
    ----------
    y_bar
        The dense block, or ``precondition``'s pair (u, vh) of its factors;
        vh must be K x T with orthonormal rows, else ValueError.
    a0
        Optional T x K initial point with orthonormal columns (default:
        Haar-uniform draw from ``rng``); any other raises ValueError before
        the first evaluation.
    on_iterate
        Optional hook called as ``on_iterate(point, j)`` with a read-only
        view of every visited iterate, including the initial one.
    p_exponent
        The objective exponent: 3 is the proposed detector, 4 the
        higher-order baseline; any other value raises ValueError.
    """
    y, isg = _solver_inputs(y_bar, g_diag, p_exponent)
    t, k = y[-1].shape[1], isg.size
    if a0 is not None:
        if np.shape(a0) != (t, k):
            raise ValueError(f"a0 must be a {t} x {k} matrix, got shape {np.shape(a0)}")
        try:
            a0 = StiefelPoint(a0).a
        except ValueError as exc:
            raise ValueError(f"a0: {exc}") from None
    vh = None
    if len(y) == 2:
        y, vh = y[:1], y[1]
        bad_vh = f"vh must be a {k} x {t} matrix with orthonormal rows, as precondition returns"
        if vh.shape[0] != k:
            raise ValueError(bad_vh)
        try:
            _check_orthonormal(vh.conj().T)
        except ValueError:
            raise ValueError(bad_vh) from None
    with _numerics():
        for restarts, start in enumerate((a0, None)):
            a = start if start is not None else random_stiefel(t, k, rng)
            try:
                return _ascend(y, isg, a, opts, p_exponent, lambda *_, polar: (polar(), 0), on_iterate, vh,
                               restarts)
            except RankDeficientError:
                continue
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


def _assign(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching of a square cost matrix: ``perm[k]`` is the row given column k.

    Kuhn's Hungarian method as shortest augmenting paths with row and column
    potentials (Jonker and Volgenant): column reduction sets each column's
    potential to its least cost and hands the column to that row if it is
    still free; every row left joins the matching along a Dijkstra path over
    reduced costs, O(K^2) per row and O(K^3) in all, on plain lists, since K
    is small.  A non-finite entry raises ValueError.
    """
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains invalid numeric entries")
    c = cost.tolist()
    n = len(c)
    u = [0.0] * n  # row potentials
    v = cost.min(axis=0).tolist() + [0.0]  # column potentials; column n is where each search starts
    match = [-1] * (n + 1)  # match[j]: the row on column j
    for j, i in enumerate(cost.argmin(axis=0).tolist()):
        if i not in match:
            match[j] = i
    for i in [i for i in range(n) if i not in match]:
        match[n], j0 = i, n
        dist = [float("inf")] * n
        prev = [n] * n  # the column before j on the shortest path to j
        free, tree = list(range(n)), [n]  # columns off and on the path tree
        while match[j0] != -1:
            row, ui = c[match[j0]], u[match[j0]]
            delta, j1 = float("inf"), -1
            for j in free:
                r, d = row[j] - ui - v[j], dist[j]
                if r < d:
                    dist[j] = d = r
                    prev[j] = j0
                if d < delta:
                    delta, j1 = d, j
            for j in tree:
                u[match[j]] += delta
                v[j] -= delta
            for j in free:
                dist[j] -= delta
            free.remove(j1)
            tree.append(j1)
            j0 = j1
        while j0 != n:
            match[j0] = match[prev[j0]]
            j0 = prev[j0]
    return np.array(match[:n], dtype=np.int64)


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
    assignment (``_assign``, exact, O(K^3)), which always yields a true
    permutation; rows are then reordered so row k is user k.

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
    perm = _assign(cost)
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
    vh = V_K^H (K x T), from ``manifold._top_factors(Ybar, K)``.  A block whose
    K-th singular value is at most 1e-10 of the largest (or that has fewer
    than K) raises RankDeficientError; ``k_users`` below 1, a ``y_bar``
    that is not a 2-d matrix, a NaN or inf entry, and a block whose Gram
    matrix could overflow (||Ybar||_F above 1.3e154, the square root of the
    largest float64, since every entry of the Gram is at most ||Ybar||_F^2)
    raise ValueError.
    """
    if k_users < 1:
        raise ValueError(f"k_users must be at least 1, got {k_users}")
    y = np.asarray(y_bar, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError(f"y_bar must be an M x T matrix, got shape {y.shape}")
    (norm,) = _norms((y,))
    if not norm <= (limit := math.sqrt(np.finfo(np.float64).max)):
        raise ValueError(
            f"received block too large: ||Ybar||_F = {norm:.3e} exceeds {limit:.3e}, "
            "past which its Gram matrix can overflow; rescale it"
        )
    with _numerics():
        s, u, vh = _top_factors(y, k_users)
    if s.size < k_users or s[-1] <= 1e-10 * s[0]:
        raise RankDeficientError(f"received block does not carry {k_users} usable directions")
    return u, vh


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
    with _numerics():
        deficient = d.shape[0] < d.shape[1] or _rank_deficient(_polar(d)[0])
    if deficient:
        raise RankDeficientError(f"{name} is rank deficient{cause}")
    dh = d.conj().T
    return np.linalg.solve(dh @ d, dh @ y)


def demodulate(x_hat: np.ndarray, c: Constellation) -> np.ndarray:
    """Map sqrt(T) * x_hat entrywise to the nearest constellation point.

    Returns the Gray labels, ties broken toward the smallest; the bits a
    label carries are ``c.bits_of(label)``.
    """
    x = np.asarray(x_hat, dtype=np.complex128)
    v = x * np.sqrt(x.shape[1])
    dist = np.abs(v[..., np.newaxis] - c.points[np.newaxis, np.newaxis, :])
    return np.argmin(dist, axis=-1)


@dataclass(frozen=True)
class DetectionResult:
    """Full output of the blind detection pipeline for one block; symbols are Gray labels."""

    x_hat: np.ndarray
    symbol_indices: np.ndarray
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
    solver: Callable[..., Tuple[np.ndarray, SolveTrace]] = solve,
    p_exponent: int = 3,
) -> DetectionResult:
    """End-to-end blind detection: solve, resolve ambiguity, demodulate.

    ``solver`` (``solve`` or ``riemannian_gd_baseline``) maximizes the
    ``p_exponent`` objective (3 or 4) on the dense block ``y_bar``, or with
    ``opts.precondition`` on ``precondition``'s pair, whose estimate is
    reprojected onto ``y_bar`` before ambiguity resolution.
    """
    k = _positive_g(g_diag, np.size(g_diag)).size
    if opts.precondition:
        y_in = precondition(y_bar, k_users=k)
    else:
        y_in = y_bar
    a_final, trace = solver(y_in, g_diag, opts, rng, p_exponent=p_exponent)
    x_est = a_final.conj().T
    if opts.precondition:
        x_est = postprocess(y_in, x_est, y_bar)
    x_hat, resolution = resolve_ambiguity(x_est, frame_meta, c)
    return DetectionResult(x_hat=x_hat, symbol_indices=demodulate(x_hat, c), trace=trace,
                           resolution=resolution)


def riemannian_gd_baseline(
    y_bar: Block,
    g_diag: np.ndarray,
    opts: SolverOptions,
    rng: np.random.Generator,
    p_exponent: int = 3,
) -> Tuple[np.ndarray, SolveTrace]:
    """Projected-gradient ascent over the Stiefel manifold with backtracking.

    From a Haar-uniform start, each step retracts A + tau * grad_R with tau
    found by halving from 1 until the objective increases (at most 30
    halvings, else it stops with ``no_ascent``); that step is all it changes
    in ``solve``'s ascent loop.
    Under identity fading it reaches ``solve``'s stationary values at extra
    line-search cost; under log-distance fading it does not.  Preconditioned,
    ||grad_R|| starts near 2e14, so 2^-29 still overshoots and it stops after
    one step at ~0.4 of ``solve``'s objective.  Unpreconditioned at 20 dB it
    stopped with ``eta_tol`` in every trial measured: 23-110 iterations on
    the default config, 21-49 on Bernoulli-Gaussian identity-fading blocks
    (4 trials each, base seed 0).  Its retractions must go through
    ``manifold.polar_retract``: ``bench/run.py --trace 1`` divides its steps
    by that call count (``rgd_accept_ratio``), a ZeroDivisionError without it.
    """
    y, isg = _solver_inputs(y_bar, g_diag, p_exponent)

    def line_search(a, obj, grad, polar):
        direction = riemannian_grad(a, grad)
        spent = 0
        for halvings in range(30):
            try:
                cand = polar_retract(a + 0.5**halvings * direction)
            except RankDeficientError:
                continue
            spent += 1
            if objective(y, cand, g_diag, p_exponent) > obj:
                return cand, spent
        return None, spent

    with _numerics():
        return _ascend(y, isg, random_stiefel(y[-1].shape[1], isg.size, rng), opts, p_exponent, line_search)


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

