"""Blind data detection by entrywise l3-norm maximization over the Stiefel manifold.

The detector recovers the transmitted frame from the angular-domain received
block Ybar alone (plus the known large-scale fading G) by solving

    max_{A in St_K(C^T)}  sum |Ybar A G^(-1/2)|^p,    p = 3,

with the parameter-free fixed-point iteration

    A <- Polar( p * Ybar^H (|W|^(p-2) . W) G^(-1/2) ),   W = Ybar A G^(-1/2),

which is a Frank-Wolfe step whose optimal step size is exactly 1 because the
objective is convex in A.  The conjugate transpose of the solution estimates
the frame up to a per-row phase and a row permutation; both are resolved
from the reference symbol and the user-ID headers (``resolve_ambiguity``).

A block is the dense M x T matrix Ybar or ``precondition``'s pair (u, vh) of
its rank-K factors, which is never multiplied out; every function that takes
a block takes either form.  ``solve`` and its projected-gradient baseline
``riemannian_gd_baseline`` share one ascent loop, ``_ascend``; ``detect``
runs the whole pipeline for one method.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .manifold import (
    RankDeficientError,
    _check_orthonormal,
    _numerics,
    _polar,
    _rank_deficient,
    _top_factors,
    polar_retract,
    random_stiefel,
    riemannian_grad,
)
from .signal import Constellation, FrameMeta

__all__ = [
    "SolverOptions",
    "SolveTrace",
    "AmbiguityResolution",
    "DetectionResult",
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

BLIND_METHODS = ("l3", "l4", "rgd")  # the names ``detect`` takes

# Proximal-gradient steps of the pilot baseline's channel estimate: always all of them.
PILOT_ITERS = 500


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the manifold solvers; the exponent is not one: ``detect``'s method sets it.

    The iteration stops at relative first-order optimality
    eta(A_j) < eta_tol * eta(A_0), when a step does not raise the objective
    (``no_ascent``: the fixed-point step never lowers it, so only float
    rounding at the converged plateau can), or after ``max_iters`` update
    steps, whichever happens first.  Neither rule reads the units of Ybar or
    G, so where a solve stops does not depend on them, and both are safe at
    ``eta_tol`` 0, which runs a solve to its plateau.
    ``max_iters`` must be a positive integer, ``eta_tol`` a finite number
    >= 0 and ``precondition`` a bool; a bool is not a number here.  Only
    ``detect`` reads ``precondition``: ``solve`` and ``riemannian_gd_baseline``
    solve the block they are given.
    """

    max_iters: int = 200
    eta_tol: float = 1e-6
    precondition: bool = False

    def __post_init__(self) -> None:
        if isinstance(n := self.max_iters, bool) or not isinstance(n, numbers.Integral) or n < 1:  # 40.0 fails
            raise ValueError(f"max_iters must be an integer of at least 1, got {n!r}")
        if isinstance(v := self.eta_tol, bool) or not (isinstance(v, numbers.Real) and 0 <= v < np.inf):
            raise ValueError(f"eta_tol must be finite and nonnegative, got {v!r}")
        if not isinstance(self.precondition, (bool, np.bool_)):  # a JSON "false" would switch it on
            raise ValueError(f"precondition must be true or false, got {self.precondition!r}")


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration diagnostics of one solver run.

    ``objective_per_iter[j]`` and ``eta_per_iter[j]`` are measured at the
    j-th iterate, including the returned one, so ``iters_run`` (update
    steps) is the trace length minus one.  ``_ascend`` records only an
    objective that exceeds the last, so the trace strictly increases unless
    the caller's units round two to one float; any decrease raises
    ValueError, but a step between two objectives past the float range (inf)
    is not checked.  ``n_evals`` counts objective/gradient evaluations, the
    dominant cost, a rejected one included.
    ``restarts`` counts fresh random starts after a rank-deficient gradient
    (``solve`` makes at most one).  ``stop_reason`` is ``eta_tol`` or
    ``max_iters`` (the stop rules), or ``no_ascent``: the step found no
    point that raises the objective.
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
        if self.stop_reason not in ("eta_tol", "max_iters", "no_ascent"):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        with np.errstate(invalid="ignore"):  # inf - inf: both objectives past the float range
            worst = np.fmin.reduce(np.diff(obj), initial=0.0)
        if worst < 0:
            raise ValueError(f"objective trace decreased by {-worst:.3e}, ascent guarantee violated")
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


def _inputs(y_bar: Block, g_diag: np.ndarray, p: int) -> Tuple[Factors, np.ndarray]:
    """The block's factors and G^(-1/2); p must be 3 or 4, the exponents ``_evaluate`` knows, and T >= K."""
    if p not in (3, 4):
        raise ValueError(f"p_exponent must be 3 or 4, got {p!r}")
    y = _factors(y_bar)
    # G^(-1/2), a vector of any length K, cast to complex128 once here rather
    # than in every evaluation: NumPy multiplies a complex array by a float64
    # vector by casting it to x + 0j and running the complex multiply, so the
    # cast gives the same bits.
    isg = (1.0 / np.sqrt(_positive_g(g_diag, np.size(g_diag)))).astype(np.complex128)
    t, k = y[-1].shape[1], isg.size
    if t < k:
        raise ValueError(f"need T >= K, got T={t}, K={k}")
    return y, isg


def _point_inputs(
    y_bar: Block, a: np.ndarray, g_diag: np.ndarray, p: int
) -> Tuple[Factors, np.ndarray, np.ndarray]:
    y, isg = _inputs(y_bar, g_diag, p)
    am = np.asarray(a, dtype=np.complex128)
    if am.ndim != 2:
        raise ValueError(f"a must be a T x K matrix, got shape {am.shape}")
    if am.shape != (y[-1].shape[1], isg.size):
        raise ValueError(f"dimension mismatch: y_bar has {y[-1].shape[1]} columns, a is {am.shape}, K={isg.size}")
    return y, am, isg


def _evaluate(
    y: Factors, a: np.ndarray, isg: np.ndarray, p: int, with_grad: bool = False
) -> Tuple[float, Optional[np.ndarray]]:
    """The objective at ``a`` and, ``with_grad``, the gradient there.

    ``isg`` is ``_inputs``' complex128 G^(-1/2), so scaling W and the
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
    """eta = ||grad||_* - Re tr(A^H grad), the package's inner product, floored at 0."""
    return max(nuclear - float(np.vdot(a, grad).real), 0.0)


def objective(y_bar: Block, a: np.ndarray, g_diag: np.ndarray, p_exponent: int = 3) -> float:
    """Entrywise p-norm objective sum |Ybar A G^(-1/2)|^p, for p = 3 or 4."""
    y, am, isg = _point_inputs(y_bar, a, g_diag, p_exponent)
    return _evaluate(y, am, isg, p_exponent)[0]


def euclid_grad(y_bar: Block, a: np.ndarray, g_diag: np.ndarray, p_exponent: int = 3) -> np.ndarray:
    """Euclidean (Wirtinger) gradient of the objective at ``a``.

    Returns p * Ybar^H (|W|^(p-2) . W) G^(-1/2) with W = Ybar A G^(-1/2);
    its real inner product with a direction equals the first-order change of
    the objective along that direction.
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
    with _numerics():
        nuclear = float(_polar(g)[0].sum())
    return _gap(nuclear, am, g)


def _norms(fs: Factors) -> list:
    """Each factor's Frobenius norm or, where that overflows or underflows to 0, its largest |part|.

    Only an all-zero factor gets 0; a NaN or inf entry raises ValueError.
    """
    norms = []
    for f in fs:
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(f))
        if not 0 < norm < math.inf:
            norm = float(np.maximum(abs(f.real), abs(f.imag)).max(initial=0.0))
            if not np.isfinite(norm):  # the SVD would not converge on it
                raise ValueError(f"received block must be finite, got norm {norm}")
        norms.append(norm)
    return norms


def _exponent(norms: list) -> int:
    """The e that puts prod(norms) / 2^e in [2^-len(norms), 1), without forming the product; at least -1022."""
    return max(sum(math.frexp(n)[1] for n in norms), -1022)


def _solver_inputs(y_bar: Block, g_diag: np.ndarray, p: int) -> Tuple[Factors, np.ndarray, int]:
    """``_inputs``, checked further, with G^(-1/2) scaled by 2^-e, and e: the loop's units.

    An all-zero block (a noiseless trial's all-zero channel) raises
    RankDeficientError and a NaN or inf entry ValueError.  Only the solvers
    check these, since the norms cost more than half an objective evaluation.
    e is ``_exponent`` of the norms and max G^(-1/2), so no entry of
    W = Ybar A G^(-1/2) 2^-e reaches sqrt(2 M T), whatever the units of Ybar
    and G.  A power of two scales exactly, and so every product and sum:
    the loop visits the iterates it would in the caller's units, with
    objective and eta 2^(-p e) times theirs.
    """
    y, isg = _inputs(y_bar, g_diag, p)
    norms = _norms(y)
    if not all(norms):
        raise RankDeficientError("received block is identically zero")
    e = _exponent(norms) + math.frexp(isg.real.max())[1]
    return y, np.ldexp(isg.real, -e).astype(np.complex128), e


def _ascend(
    y: Factors,
    isg: np.ndarray,
    e: int,
    a: np.ndarray,
    opts: SolverOptions,
    p: int,
    step: Callable[..., Tuple[Optional[np.ndarray], int]],
    vh: Optional[np.ndarray] = None,
    restarts: int = 0,
) -> Tuple[np.ndarray, SolveTrace]:
    """The ascent loop both solvers share; only ``step`` differs.

    Each iterate costs one objective/gradient evaluation; one that does not
    raise the objective stops the loop with ``no_ascent`` at the previous
    iterate, counted in ``n_evals`` but not recorded.  Otherwise one
    factorization of the gradient through ``_polar`` gives eta, and the stop
    rules ``eta_tol`` and ``max_iters`` follow.  Otherwise ``step(a, obj,
    grad, polar)`` returns the next iterate, or None (it found no ascent:
    ``no_ascent`` too), and the objective evaluations it spent; ``polar()``
    forms the gradient's polar factor, raising RankDeficientError when the
    gradient is rank deficient.  An all-zero gradient raises
    RankDeficientError at once: its eta of 0 would otherwise pass the stop
    rule at objective 0, the minimum.  Iterates are plain arrays, checked by
    ``_check_orthonormal`` once at the start and as ``step`` returns each
    (drift raises ValueError, never a restart).

    With ``vh``, ``y`` is the pair's left factor (u,) and the loop runs on
    x = vh A, as ``solve`` describes.  The trace, scaled back by 2^(p e) from
    ``_solver_inputs``' units, carries ``restarts``, the caller's count of
    earlier starts.
    """
    a = _check_orthonormal(a)
    x = a if vh is None else vh @ a
    objs: list[float] = []
    etas: list[float] = []
    n_evals = 0
    for j in range(opts.max_iters + 1):
        obj, grad = _evaluate(y, x, isg, p, with_grad=True)
        n_evals += 1
        if j and not obj > objs[-1]:  # float rounding: the step cannot lower the objective
            x, stop_reason = prev, "no_ascent"
            break
        s, polar = _polar(grad)
        if s[0] == 0.0:
            raise RankDeficientError("the gradient vanishes")
        objs.append(obj)
        etas.append(_gap(float(s.sum()), x, grad))
        if etas[-1] < opts.eta_tol * etas[0]:
            stop_reason = "eta_tol"
        elif j == opts.max_iters:
            stop_reason = "max_iters"
        else:
            nxt, spent = step(x, obj, grad, polar=polar)
            n_evals += spent
            if nxt is not None:
                prev, x = x, _check_orthonormal(nxt)
                continue
            stop_reason = "no_ascent"
        break
    a = a if len(objs) == 1 else x if vh is None else _check_orthonormal(vh.conj().T @ x)
    return a, SolveTrace(np.ldexp(objs, p * e), np.ldexp(etas, p * e), stop_reason, n_evals, restarts)


def solve(
    y_bar: Block,
    g_diag: np.ndarray,
    opts: SolverOptions,
    rng: np.random.Generator,
    a0: Optional[np.ndarray] = None,
    p_exponent: int = 3,
) -> Tuple[np.ndarray, SolveTrace]:
    """Run the parameter-free fixed-point iteration from a random start.

    Each step computes the gradient, factors it once, reads the optimality
    gap eta off its singular values, and retracts onto its polar factor.  A
    rank deficient gradient triggers one automatic restart from a fresh
    random point, counted in the trace's ``restarts``; a second failure
    re-raises RankDeficientError, which ``run_sweep`` records per trial.

    On the pair (u, vh) the loop runs in the K-dimensional row space of vh.
    Every gradient there is vh^H C with C = p (u^H F) G^(-1/2), and
    polar(vh^H C) = vh^H polar(C), so after the start every iterate is
    vh^H B for a K x K unitary B.  The loop holds x = vh A, which is exact
    because every quantity reads A only through it: W = u x G^(-1/2), the
    gradient's coordinates C (its singular values, and Re<x, C> =
    Re<A, gradient>), and the step, whose polar factor is the next x.  An
    iteration then costs two M x K x K products and the SVD of C, O(M K^2),
    independent of T.  The start is drawn and checked in T-space as on the
    dense block; only the returned iterate is formed as vh^H x, and checked.

    Parameters
    ----------
    y_bar
        The dense block, or ``precondition``'s pair (u, vh) of its factors;
        vh must be K x T with orthonormal rows, else ValueError.
    a0
        Optional T x K initial point with orthonormal columns (default:
        Haar-uniform draw from ``rng``); any other raises ValueError before
        the first evaluation.
    p_exponent
        The objective exponent: 3 is the proposed detector, 4 the
        higher-order baseline; any other value raises ValueError.
    """
    y, isg, e = _solver_inputs(y_bar, g_diag, p_exponent)
    t, k = y[-1].shape[1], isg.size
    if a0 is not None:
        if np.shape(a0) != (t, k):
            raise ValueError(f"a0 must be a {t} x {k} matrix, got shape {np.shape(a0)}")
        try:
            a0 = _check_orthonormal(np.array(a0, dtype=np.complex128, order="C"))
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
                return _ascend(y, isg, e, a, opts, p_exponent, lambda *_, polar: (polar(), 0), vh, restarts)
            except RankDeficientError:
                continue
    raise RankDeficientError("gradient rank deficient after one restart; perturb the input")


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
    vh = V_K^H (K x T), from ``manifold._top_factors`` of Ybar / 2^e, e
    ``_exponent`` of its norm, whose Gram lies inside LAPACK's safe range;
    the factors do not depend on the scale.  A block whose K-th singular
    value is at most 1e-10 of the largest (or that has fewer than K) raises
    RankDeficientError; ``k_users`` below 1, a ``y_bar`` that is not a 2-d
    matrix and a NaN or inf entry raise ValueError.
    """
    if k_users < 1:
        raise ValueError(f"k_users must be at least 1, got {k_users}")
    y = np.asarray(y_bar, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError(f"y_bar must be an M x T matrix, got shape {y.shape}")
    y = y * 2.0 ** -_exponent(_norms((y,)))
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
    form, so a pair gives D = u (vh Xhat_pre^H); ``y_bar`` is dense.  Xhat,
    in the units of ``y_bar``, is scaled by a power of two before its row
    norms are taken.
    """
    d = _apply(_factors(y_bar_pre), np.asarray(x_hat_pre).conj().T)
    x_hat = _least_squares(d, np.asarray(y_bar), "reprojection matrix D")
    x_hat *= 2.0 ** -_exponent(_norms((x_hat,)))
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
    method: str = "l3",
) -> DetectionResult:
    """End-to-end blind detection by one method: solve, resolve ambiguity, demodulate.

    ``method`` names it: ``l3`` runs ``solve`` with p = 3, ``l4`` with p = 4,
    ``rgd`` runs ``riemannian_gd_baseline``; each is looked up at the call, so
    a patched ``detector.solve`` sees it, and any other name raises ValueError.
    The solver runs on the dense ``y_bar``, or with ``opts.precondition`` on
    ``precondition``'s pair, whose estimate is reprojected onto ``y_bar``.
    """
    if method not in BLIND_METHODS:
        raise ValueError(f"unknown blind method {method!r}; choose from {BLIND_METHODS}")
    k = _positive_g(g_diag, np.size(g_diag)).size
    if opts.precondition:
        y_in = precondition(y_bar, k_users=k)
    else:
        y_in = y_bar
    if method == "rgd":
        a_final, trace = riemannian_gd_baseline(y_in, g_diag, opts, rng)
    else:
        a_final, trace = solve(y_in, g_diag, opts, rng, p_exponent=4 if method == "l4" else 3)
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
) -> Tuple[np.ndarray, SolveTrace]:
    """Projected-gradient ascent on the l3 objective over the Stiefel manifold with backtracking.

    From a Haar-uniform start, each step retracts A + tau * grad_R with tau
    found by halving from 1 in the caller's units (2^(3 e) in the loop's,
    capped at 2^1000) until the objective increases (at most 30 halvings,
    else it stops with ``no_ascent``); that step is all it changes in
    ``solve``'s ascent loop.
    Under identity fading it reaches ``solve``'s stationary values at extra
    line-search cost; under log-distance fading it does not.  Preconditioned,
    ||grad_R|| starts near 2e14, so 2^-29 still overshoots and it stops after
    one step at ~0.4 of ``solve``'s objective.  Unpreconditioned at 20 dB
    it stopped with ``eta_tol`` in all 4 trials at base seed 0, after
    23-110 iterations on the default config and 21-49 on Bernoulli-Gaussian
    identity-fading blocks; on 20 default-config trials at base seed 3 it
    stopped with ``eta_tol`` in 17 (19-175 iterations) and at ``max_iters``
    (200) in 3.  Its retractions must go through
    ``manifold.polar_retract``: ``bench/run.py --trace 1`` divides its steps
    by that call count (``rgd_accept_ratio``), a ZeroDivisionError without it.
    """
    y, isg, e = _solver_inputs(y_bar, g_diag, 3)
    top = min(3 * e, 1000)  # keeps tau * grad_R finite

    def line_search(a, obj, grad, polar):
        direction = riemannian_grad(a, grad)
        spent = 0
        for halvings in range(30):
            try:
                cand = polar_retract(a + math.ldexp(1.0, top - halvings) * direction)
            except RankDeficientError:
                continue
            spent += 1
            if _evaluate(y, cand, isg, 3)[0] > obj:
                return cand, spent
        return None, spent

    with _numerics():
        return _ascend(y, isg, e, random_stiefel(y[-1].shape[1], isg.size, rng), opts, 3, line_search)


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

    with step 1 / L, L the squared spectral norm of the pilot operator, for
    exactly ``PILOT_ITERS`` = 500 steps, a budget and not a tolerance (ISTA's
    objective gap falls as O(1/k); Beck and Teboulle, 2009).  G is
    each user's received gain (the harness passes G P with unit-power
    pilots), and the weight lam * g_k makes the estimate independent of its
    scale (an unweighted lam zeroes it under log-distance fading, g_k ~
    1e-10).  Data is then detected by least squares against the estimated
    effective channel.  Like the blind solvers it solves in units of its own,
    on Ytrain 2^-e, Ydata 2^-e and G 4^-e with 2^(2e) near ||Ytrain|| max
    G^(1/2): exact where G is normal, and L, 1 / L and the zero-forcing Gram
    stay finite from subnormal G to noise 1e300 times the signal.
    """
    y_t = np.asarray(y_bar_train, dtype=np.complex128)
    x_t = np.asarray(x_train, dtype=np.complex128)
    if x_t.shape[1] < 1:
        raise ValueError("need at least one pilot symbol")
    k = x_t.shape[0]
    g = _positive_g(g_diag, k)
    e = (_exponent(_norms((y_t,))) + math.frexp(g.max())[1] // 2) // 2
    y_t, y_d, g = np.ldexp(1.0, -e) * y_t, np.ldexp(1.0, -e) * np.asarray(y_bar_data), np.ldexp(g, -2 * e)
    sqrt_g = np.sqrt(g)
    b = x_t * sqrt_g[:, np.newaxis]
    lip = float(np.linalg.norm(b, 2)) ** 2
    if lip == 0.0:
        raise ValueError("pilot matrix is zero")
    step = 1.0 / lip
    h = np.zeros((y_t.shape[0], k), dtype=np.complex128)
    for _ in range(PILOT_ITERS):
        h = _soft_threshold(h - step * ((h @ b - y_t) @ b.conj().T), lam * step * g)
    zeroed = np.flatnonzero(~h.any(axis=0)).tolist()  # a weak user can fall below lam * g_k
    cause = f"; the channel estimates of users {zeroed} are all zero" if zeroed else ""
    return _least_squares(h * sqrt_g, y_d, "zero-forcing matrix", cause)

