"""Complex Stiefel manifold primitives.

The complex Stiefel manifold St_K(C^T) is the set of T x K complex matrices
with orthonormal columns (A^H A = I_K).  This module provides the small set
of operations every solver in the package is built on: Haar-uniform sampling,
the polar-decomposition retraction, tangent-space projection of a Euclidean
gradient, and the nuclear norm.  A point is its plain T x K array, as a
direction is; ``StiefelPoint`` only checks a point that a caller supplies.

``_polar`` is the only place that chooses how singular values and polar
factors are computed: a strictly tall matrix goes through the
eigendecomposition of its small K x K Gram matrix m^H m, and anything else
(a square matrix, whose Gram is no smaller, or a wide one), or a Gram too
ill-conditioned to trust (forming it squares the condition number of m),
through the compact SVD.  Both run on every solver iteration, so they call
LAPACK's zheevd and zgesdd directly, the routines behind NumPy's eigh and
svd, without NumPy's wrapper.  Preconditioning, which runs once per block
and needs only the top K eigenpairs of a Gram, takes them from
``scipy.linalg.eigh``'s ``subset_by_index``.

All functions are pure; random state is owned by the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import eigh, lapack

__all__ = [
    "ORTHONORMALITY_TOL",
    "RankDeficientError",
    "StiefelPoint",
    "random_stiefel",
    "polar_retract",
    "riemannian_grad",
    "nuclear_norm",
    "real_inner",
]

ORTHONORMALITY_TOL = 1e-9

# Singular values below this fraction of the largest count as zero.
_RANK_RTOL = 1e-12

# Gram eigenvalues at or below this fraction of the largest (condition number
# of m at least ~316) send polar factors to the SVD: the Gram route's
# orthonormality residual grows like eps * cond(m)^2.
_GRAM_RTOL = 1e-5


class RankDeficientError(ValueError):
    """A matrix that must have full column rank is numerically rank deficient.

    A vanishing singular value means the input carries no information along
    that direction, so the polar factor is not unique; callers should perturb
    the input or restart rather than accept an arbitrary completion.
    """


def real_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real trace inner product Re tr(X^H Y).

    This is the inner product under which all first-order quantities in this
    package (gradients, optimality gaps, line searches) are measured; it is
    the real-valued pairing needed to order points on a complex manifold.
    """
    return float(np.vdot(x, y).real)


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

    Points are plain arrays everywhere in the package; this class is the
    check at the boundary where a caller hands one in (``solve``'s ``a0``).
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

    The factor comes from ``_polar``: m (m^H m)^(-1/2) from the
    eigendecomposition of the Gram of a strictly tall ``m``, or U V^H from
    the SVD when ``m`` is square or the Gram's smallest eigenvalue is at
    most 1e-5 of the largest.

    Raises
    ------
    RankDeficientError
        If the smallest singular value is at most 1e-12 times the largest.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[1] > m.shape[0]:
        raise ValueError(f"expected a tall matrix, got shape {m.shape}")
    return _polar(m)[1]()


def _rank_deficient(s: np.ndarray) -> bool:
    """Whether descending singular values ``s`` mark a rank-deficient matrix."""
    return s[0] == 0.0 or s[-1] <= _RANK_RTOL * s[0]


def _eigh(gram: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(gram)``: the same LAPACK zheevd on the lower triangle, without NumPy's wrapper."""
    lam, v, info = lapack.zheevd(gram, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return lam, v


@functools.lru_cache(maxsize=64)
def _svd_lwork(rows: int, cols: int) -> int:
    """zgesdd's queried workspace for a rows x cols compact SVD."""
    work, _ = lapack.zgesdd_lwork(rows, cols, full_matrices=0)
    return max(int(work.real), 1)


def _svd(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(m, full_matrices=False)``: the same LAPACK zgesdd, without NumPy's wrapper.

    The workspace comes from zgesdd's own query, as NumPy's does, asked once
    per shape; the wrapper's smaller default blocks differently and moves the
    last bits of U and V^H (at 300 x 64 and 100 x 100, for two).
    """
    u, s, vh, info = lapack.zgesdd(m, full_matrices=0, lwork=_svd_lwork(*m.shape))
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, s, vh


def _gram_polar(
    m: np.ndarray, r: Optional[int] = None
) -> Optional[Tuple[np.ndarray, Callable]]:
    """Top ``r`` (default all) singular values of ``m`` and its polar factor, from eigh(m^H m).

    Returns the descending singular values and a function that forms
    m V Sigma^-1 V^H from the kept eigenpairs, or with ``r`` given its factors
    (m V Sigma^-1, V^H), so callers that only need the singular values skip
    those products; with ``r`` only the top r eigenpairs are computed, by
    ``scipy.linalg.eigh``'s ``subset_by_index`` (which rejects a non-finite
    Gram with ValueError).
    Returns None when the r-th eigenvalue is at most ``_GRAM_RTOL`` of the
    largest; ``_polar`` then takes the SVD route.  With all eigenpairs kept,
    a Gram diagonal spread past that cut proves it without the
    eigendecomposition, since the extreme eigenvalues bracket the diagonal.
    That test stays in NumPy: on a 2-vCPU AVX-512 x86 host, zheevd run
    straight after the Gram's product was about 16 us slower on an 8 x 8
    Gram unless a NumPy reduction ran between them, so this function took
    43 us on a 256 x 8 block with the same test on Python floats, and 26 us
    as written.
    """
    gram = m.conj().T @ m
    if r is not None:
        n = gram.shape[0]
        lam, v = eigh(gram, subset_by_index=[max(n - r, 0), n - 1])
    elif (d := gram.diagonal().real).min() > _GRAM_RTOL * d.max():
        lam, v = _eigh(gram)
    else:
        return None
    lam, v = lam[::-1], v[:, ::-1]
    if not lam[-1] > _GRAM_RTOL * lam[0]:
        return None
    s = np.sqrt(lam)
    if r is None:
        return s, lambda: m @ ((v / s) @ v.conj().T)
    return s, lambda: (m @ (v / s), v.conj().T)


def _polar(
    m: np.ndarray, r: Optional[int] = None
) -> Tuple[np.ndarray, Callable]:
    """Top ``r`` (default all) singular values of ``m`` and a function forming its polar factor.

    A strictly tall ``m`` takes ``_gram_polar`` when that accepts; anything
    else, a square ``m`` included, takes the compact SVD, whose function
    forms U V^H, or with ``r`` given returns the factors (U, V^H), from the
    kept singular vectors and raises RankDeficientError when the kept
    singular values fail the 1e-12 rank test.  Callers that need only the
    singular values never call the function.
    """
    if m.shape[1] < m.shape[0]:
        fast = _gram_polar(m, r)
        if fast is not None:
            return fast
    u, s, vh = _svd(m)
    if r is not None:
        u, s, vh = u[:, :r], s[:r], vh[:r]

    def factor():
        if _rank_deficient(s):
            raise RankDeficientError(
                f"rank-deficient input: singular values span [{s[-1]:.3e}, {s[0]:.3e}]"
            )
        return u @ vh if r is None else (u, vh)

    return s, factor


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


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values of ``m``."""
    return float(_polar(np.asarray(m))[0].sum())
