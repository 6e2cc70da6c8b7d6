"""Complex Stiefel manifold primitives, and every factorization the package runs.

The complex Stiefel manifold St_K(C^T) is the set of T x K complex matrices
with orthonormal columns (A^H A = I_K).  This module provides the small set
of operations every solver in the package is built on: Haar-uniform sampling
(``random_stiefel``), the polar retraction (``polar_retract``) and
tangent-space projection of a Euclidean gradient (``riemannian_grad``).  A
point is its plain T x K array, as a direction is; ``StiefelPoint``, which
no solver builds, wraps a checked one.

Each solver iteration's singular values and polar factor come from
``_polar``, and preconditioning's rank-r factors from ``_top_factors``.  Both
call NumPy's own LAPACK gufuncs through ``_eigh`` and ``_svd``, bare, inside
the error state ``_numerics()``; the package needs no SciPy.

Which results depend on the BLAS thread count.  With OpenBLAS 0.3.31 these
gave the same bytes under 1 and 2 threads: every matrix product, every
factorization of a K x K or T x K matrix with K = 8, and both of
``_top_factors``' routes, the full zheevd of the T x T Gram below
``_SUBSPACE_MIN_T`` columns and ``_top_subspace`` from there on.  These did
not: the full zheevd of a Gram of T = 98 or more, which a block of at least
``_SUBSPACE_MIN_T`` columns takes only when ``_top_subspace`` gives None; the
SVD of ``_top_subspace``'s T x 12 start from T = 838 on (the same bytes up to
T = 837), which ``_polar`` takes when the start fails the ``_GRAM_RTOL`` cut
(on default-config blocks of T = 960 from 35 dB up); and the SVD of an
ill-conditioned or large matrix, such as a 300 x 64 one.

All functions are pure; random state is owned by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, svd_s

__all__ = [
    "ORTHONORMALITY_TOL",
    "RankDeficientError",
    "StiefelPoint",
    "random_stiefel",
    "polar_retract",
    "riemannian_grad",
]

ORTHONORMALITY_TOL = 1e-9

# Singular values below this fraction of the largest count as zero.
_RANK_RTOL = 1e-12

# Gram eigenvalues at or below this fraction of the largest (condition number
# of m at least ~316) send polar factors to the SVD: the Gram route's
# orthonormality residual grows like eps * cond(m)^2.
_GRAM_RTOL = 1e-5

# ``_top_factors`` takes ``_top_subspace`` for blocks of at least this many
# columns, and the full zheevd of the T x T Gram below it, where that does
# not depend on the thread count (module docstring).  Near it both routes
# take 1-4 ms on M = 256.
_SUBSPACE_MIN_T = 96
# Guard vectors the subspace iteration carries beside the r it returns.
_SUBSPACE_GUARD = 4
# Steps after which it gives up for the full eigendecomposition.
_SUBSPACE_STEPS = 64
# A Ritz pair (lam_i, v_i) has converged when ||G v_i - lam_i v_i|| is at
# most this times sqrt(lam_1 lam_i), which bounds u^H m - S vh by this
# times the largest singular value.
_SUBSPACE_RTOL = 1e-13


class RankDeficientError(ValueError):
    """A matrix that must have full column rank is numerically rank deficient.

    A vanishing singular value means the input carries no information along
    that direction, so the polar factor is not unique; callers should perturb
    the input or restart rather than accept an arbitrary completion.  It is the
    one per-trial failure ``run_sweep`` records (an all-zero block raises it too).
    """


def _check_orthonormal(a: np.ndarray) -> np.ndarray:
    """Return ``a`` if ||a^H a - I_K||_F < 1e-9, else raise ValueError.

    The residual is sqrt(Re <E, E>) of E = a^H a - I_K, one ``vdot`` rather
    than ``np.linalg.norm``'s wrapper; a NaN residual fails the test.
    """
    gram = a.conj().T @ a
    gram.ravel()[:: gram.shape[0] + 1] -= 1.0
    err = math.sqrt(np.vdot(gram, gram).real)
    if not err < ORTHONORMALITY_TOL:
        raise ValueError(f"columns not orthonormal: ||A^H A - I||_F = {err:.3e}")
    return a


@dataclass(frozen=True)
class StiefelPoint:
    """A caller's T x K complex matrix, checked to have orthonormal columns.

    Points are plain arrays everywhere in the package, and no solver builds
    this class: ``solve`` checks its ``a0`` with ``_check_orthonormal``.
    Construction requires a 2-d matrix with 1 <= K <= T and
    ||a^H a - I_K||_F < 1e-9 (``_check_orthonormal``, which holds every
    column norm within 1e-9 of 1), and stores a read-only C-ordered
    complex128 copy as ``a``.
    """

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=np.complex128, copy=True, order="C")
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
        t_dim, k_dim = a.shape
        if k_dim < 1 or t_dim < 1:
            raise ValueError("dimensions must be positive")
        if k_dim > t_dim:
            raise ValueError(f"need k_dim <= t_dim, got {k_dim} > {t_dim}")
        _check_orthonormal(a)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)


def random_stiefel(t_dim: int, k_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-uniform point on St_K(C^T).

    A t_dim x k_dim matrix with i.i.d. standard complex Gaussian entries is
    QR-factorised; the Q factor is phase-normalised so the R factor has a
    positive real diagonal, which makes the output exactly Haar distributed
    and a deterministic function of the Gaussian draw.
    """
    if t_dim < 1 or k_dim < 1:
        raise ValueError("dimensions must be positive")
    if k_dim > t_dim:
        raise ValueError(f"need k_dim <= t_dim, got {k_dim} > {t_dim}")
    g = rng.standard_normal((t_dim, k_dim)) + 1j * rng.standard_normal((t_dim, k_dim))
    q, r = np.linalg.qr(g / np.sqrt(2.0), mode="reduced")
    d = np.diagonal(r)
    phase = np.where(d == 0, 1.0, d / np.abs(np.where(d == 0, 1.0, d)))
    return q * phase[np.newaxis, :]


def polar_retract(m: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor U V^H of the compact SVD of ``m``.

    For full-column-rank input this is the unique maximiser of Re<m, A> over
    the Stiefel manifold, and the nearest Stiefel point in Frobenius norm.

    The factor comes from ``_polar``, which chooses how to form it.

    Raises
    ------
    RankDeficientError
        If the smallest singular value is at most 1e-12 times the largest.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[1] > m.shape[0]:
        raise ValueError(f"expected a tall matrix, got shape {m.shape}")
    with _numerics():
        return _polar(m)[1]()


def _rank_deficient(s: np.ndarray) -> bool:
    """Whether descending singular values ``s`` mark a rank-deficient matrix."""
    return s[0] == 0.0 or s[-1] <= _RANK_RTOL * s[0]


def _numerics() -> np.errstate:
    """The error state to factor in: that of ``np.linalg`` around its gufuncs, with invalid values raising.

    Overflow, division by zero and underflow pass silently, as ``np.linalg``
    lets them pass inside LAPACK.  A gufunc that does not converge (NaN
    input included) fills its outputs with NaN and raises the invalid-value
    flag, which here raises FloatingPointError; ``_eigh`` and ``_svd`` turn
    it into LinAlgError with ``np.linalg``'s message.  A solve enters one
    such state for its whole loop, and so does each public function that
    factors, so the gufuncs are called bare.
    """
    return np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")


def _eigh(gram: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(gram)``: the same zheevd gufunc on the lower triangle, without NumPy's wrapper.

    Call it inside ``_numerics()``.
    """
    try:
        return eigh_lo(gram, signature="D->dD")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Eigenvalues did not converge") from None


def _svd(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(m, full_matrices=False)``: the same zgesdd gufunc, without NumPy's wrapper.

    The gufunc queries zgesdd's workspace itself, as it does for NumPy.
    Call it inside ``_numerics()``.
    """
    try:
        return svd_s(m, signature="D->DdD")
    except FloatingPointError:
        raise np.linalg.LinAlgError("SVD did not converge") from None


def _polar(m: np.ndarray) -> Tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Singular values of ``m`` and a function forming its polar factor only when called.

    A strictly tall ``m`` whose Gram m^H m passes the ``_GRAM_RTOL`` cut
    takes ``_eigh`` of the Gram, and the function forms m V Sigma^-1 V^H;
    anything else takes the compact SVD, whose function forms U V^H or
    raises RankDeficientError under the 1e-12 rank test.  A Gram diagonal
    spread past the cut fails it without the eigendecomposition, since the
    extreme eigenvalues bracket the diagonal, and so does one that
    overflowed to inf, or to inf - inf, which raises FloatingPointError
    inside ``_numerics()``: the test skips an eigendecomposition that the
    cut would reject.
    """
    try:
        gram = m.conj().T @ m if m.shape[1] < m.shape[0] else None
    except FloatingPointError:
        gram = None
    if gram is not None and (d := gram.diagonal().real).min() > _GRAM_RTOL * d.max():
        lam, v = _eigh(gram)
        lam, v = lam[::-1], v[:, ::-1]
        if lam[-1] > _GRAM_RTOL * lam[0]:
            s = np.sqrt(lam)
            return s, lambda: m @ ((v / s) @ v.conj().T)
    u, s, vh = _svd(m)

    def factor():
        if _rank_deficient(s):
            raise RankDeficientError(
                f"rank-deficient input: singular values span [{s[-1]:.3e}, {s[0]:.3e}]"
            )
        return u @ vh

    return s, factor


def _top_subspace(m: np.ndarray, r: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The top ``r`` eigenpairs of the Gram G = m^H m, descending, by block subspace iteration; or None.

    Subspace iteration with Rayleigh-Ritz (Saad, *Numerical Methods for
    Large Eigenvalue Problems*, 2011, chs. 4-5) on b = r + ``_SUBSPACE_GUARD``
    vectors N, at first the b rows of m of largest norm.  Each step takes
    the basis Q as N's polar factor from ``_polar``, forms Y = m Q, the
    b x b Rayleigh quotient Y^H Y = Q^H G Q and its ``_eigh`` (Ritz values
    lam and vectors W), then the Ritz vectors V = Q W and, with the shift
    s = min(lam) / 2, N = (m^H Y W - s V) (lam - s)^-1 = V + R (lam - s)^-1,
    R being the residuals G V - V lam.  It returns the top r of (lam, V)
    once every one of their residuals ||R_i|| is at most ``_SUBSPACE_RTOL``
    sqrt(lam_1 lam_i).  N's Gram, I + (lam - s)^-1 R^H R (lam - s)^-1 in
    exact arithmetic, is no worse conditioned than the residuals make it.
    The shift maps the unwanted eigenvalues, which lie in [0, about
    min(lam)], into [-s, s], and so speeds each step's contraction from
    lam_(b+1) / lam_r to about (lam_(b+1) - s) / (lam_r - s): by a third
    fewer steps when the r-th eigenvalue sits next to the noise.  G is
    never formed: a step costs two M x T x b products, and m^H Y is read
    through m's transpose, with no conjugate copy of m.  It gives None, for
    the full eigendecomposition to answer, when a Ritz value is at most
    1e-12 of the largest (the block reaches G's null space), when ``_polar``
    finds N rank deficient (a start of rank below b, as on a noiseless
    block), or after ``_SUBSPACE_STEPS`` steps.  With fewer than b rows,
    all of them start it, span G's range and give the pairs in one step.
    """
    b = r + _SUBSPACE_GUARD
    nxt = m[np.argsort(np.vecdot(m, m).real)[-b:]].conj().T
    for _ in range(_SUBSPACE_STEPS):
        try:
            q = _polar(nxt)[1]()
        except RankDeficientError:
            return None
        y = m @ q
        yc = np.conjugate(y)
        lam, w = _eigh(yc.T @ y)  # ascending: the top r are the last
        if not lam[0] > 1e-12 * lam[-1]:
            return None
        v = q @ w
        shift = lam[0] / 2
        nxt = (np.conjugate(m.T @ yc) @ w - shift * v) / (lam - shift)
        d = nxt[:, -r:] - v[:, -r:]
        shifted = lam[-r:] - shift  # ||R_i|| = ||d_i|| shifted_i, tested as ||R_i||^2 / lam_i <= rtol^2 lam_1
        if (np.vecdot(d, d, axis=0).real * (shifted / lam[-r:] * shifted) <= _SUBSPACE_RTOL**2 * lam[-1]).all():
            return lam[: -r - 1 : -1], v[:, : -r - 1 : -1]
    return None


def _top_factors(m: np.ndarray, r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top ``r`` singular values of ``m`` (fewer if it has fewer) and its factors (m V Sigma^-1, V^H).

    The Gram's top r eigenpairs come from ``_top_subspace`` when ``m`` has
    at least ``_SUBSPACE_MIN_T`` columns; else, or when it gives None, a
    strictly tall ``m`` takes the full ``_eigh`` of its Gram and keeps the
    top r.  When the r-th eigenvalue passes the ``_GRAM_RTOL`` cut, the
    factors follow from those pairs; anything else takes the compact SVD's
    top r.  No rank test is made here.  Call it inside ``_numerics()``.
    """
    top = None
    if m.shape[1] >= _SUBSPACE_MIN_T:
        top = _top_subspace(m, r)
    if top is None and m.shape[1] < m.shape[0]:
        lam, v = _eigh(m.conj().T @ m)
        top = lam[::-1][:r], v[:, ::-1][:, :r]
    if top is not None and (lam := top[0])[-1] > _GRAM_RTOL * lam[0]:
        s = np.sqrt(lam)
        return s, m @ (top[1] / s), top[1].conj().T
    u, s, vh = _svd(m)
    return s[:r], u[:, :r], vh[:r]


def riemannian_grad(a: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at ``a``.

    Returns the T x K array (I - a a^H) g + a (a^H g - g^H a) / 2, the
    steepest ascent direction on the manifold under the real trace inner
    product; with b = a^H g, a^H xi = (b - b^H) / 2 is skew-Hermitian, so it
    is tangent by construction.  It vanishes exactly when a^H g is Hermitian
    and g lies in the column space of ``a``, the first-order stationarity
    condition.  ``a`` is not checked.
    """
    am = np.asarray(a, dtype=np.complex128)
    g = np.asarray(euclid_grad, dtype=np.complex128)
    if g.shape != am.shape:
        raise ValueError(f"shape mismatch: grad {g.shape} vs point {am.shape}")
    b = am.conj().T @ g
    return g - am @ ((b + b.conj().T) / 2.0)
