"""Complex Stiefel manifold primitives.

The complex Stiefel manifold St_K(C^T) is the set of T x K complex matrices
with orthonormal columns (A^H A = I_K).  This module provides the small set
of operations every solver in the package is built on: Haar-uniform sampling,
the polar-decomposition retraction, tangent-space projection of a Euclidean
gradient, and the nuclear norm.  A point is its plain T x K array, as a
direction is; ``StiefelPoint`` only checks a point that a caller supplies.

``_polar(m)`` gives the singular values and polar factor that every solver
iteration needs: a strictly tall matrix goes through the eigendecomposition
of its small K x K Gram matrix m^H m, and anything else (a square or wide
matrix, or a Gram too ill-conditioned to trust, since forming it squares
the condition number of m) through the compact SVD, by NumPy's own LAPACK
gufuncs for zheevd and zgesdd, the routines behind ``np.linalg.eigh`` and
``np.linalg.svd``, called without NumPy's wrapper.  ``_top_factors(m, r)``,
preconditioning's once-per-block rank-r factorization, takes the top r
eigenpairs of the Gram from SciPy's zheevr, with the same cut; SciPy is
imported on its first call, and nothing else in the package imports it.

All functions are pure; random state is owned by the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, svd_s

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


def _no_convergence(message: str) -> np.errstate:
    """NumPy's error state around its LAPACK gufuncs, as ``np.linalg`` sets it, raising ``message``.

    A gufunc that does not converge (NaN input included) fills its outputs
    with NaN and raises the invalid-value flag, which here raises
    LinAlgError(message) instead of a RuntimeWarning.
    """
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_no_convergence("Eigenvalues did not converge")
def _eigh(gram: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(gram)``: the same zheevd gufunc on the lower triangle, without NumPy's wrapper."""
    return eigh_lo(gram, signature="D->dD")


@_no_convergence("SVD did not converge")
def _svd(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(m, full_matrices=False)``: the same zgesdd gufunc, without NumPy's wrapper.

    The gufunc queries zgesdd's workspace itself, as it does for NumPy.
    """
    return svd_s(m, signature="D->DdD")


@functools.lru_cache(maxsize=64)
def _heevr(n: int) -> Callable[..., tuple]:
    """SciPy's zheevr, imported on first use, with its queried workspaces for an n x n lower triangle.

    The workspaces are those ``scipy.linalg.eigh`` queries on every call.
    """
    from scipy.linalg import lapack

    work, rwork, iwork, _ = lapack.zheevr_lwork(n, lower=1)
    return functools.partial(lapack.zheevr, lwork=int(work.real), lrwork=int(rwork), liwork=int(iwork))


def _top_eigh(gram: np.ndarray, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh(gram, subset_by_index=[n - r, n - 1])``: zheevr called directly.

    Returns the eigenpairs found, ascending, which inside one tight cluster
    can be fewer than min(r, n).  A non-finite Gram raises ValueError, as
    ``eigh``'s finite check does, before zheevr runs; nonzero info raises
    LinAlgError.
    """
    if not np.isfinite(gram).all():
        raise ValueError("array must not contain infs or NaNs")
    n = gram.shape[0]
    lam, v, found, _, info = _heevr(n)(gram, compute_v=1, range="I", il=max(n - r, 0) + 1, iu=n, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return lam[:found], v[:, :found]


def _polar(m: np.ndarray) -> Tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Singular values of ``m`` and a function forming its polar factor only when called.

    A strictly tall ``m`` whose Gram m^H m passes the ``_GRAM_RTOL`` cut
    takes ``_eigh`` of the Gram, and the function forms m V Sigma^-1 V^H;
    anything else takes the compact SVD, whose function forms U V^H or
    raises RankDeficientError under the 1e-12 rank test.  A Gram diagonal
    spread past the cut fails it without the eigendecomposition, since the
    extreme eigenvalues bracket the diagonal, and so does one that
    overflowed to inf or NaN.  That test stays in NumPy: on a
    2-vCPU AVX-512 x86 host, zheevd run straight after the Gram's product was
    about 16 us slower on an 8 x 8 Gram unless a NumPy reduction ran between.
    """
    if m.shape[1] < m.shape[0]:
        gram = m.conj().T @ m
        if (d := gram.diagonal().real).min() > _GRAM_RTOL * d.max():
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


def _top_factors(m: np.ndarray, r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top ``r`` singular values of ``m`` (fewer if it has fewer) and its factors (m V Sigma^-1, V^H).

    A strictly tall ``m`` takes its Gram's top r eigenpairs from
    ``_top_eigh``, SciPy's zheevr (a non-finite Gram raises ValueError),
    when all min(r, n) come back (zheevr can return fewer inside one tight
    cluster) and the last passes the ``_GRAM_RTOL`` cut; anything else takes
    the compact SVD's top r.  No rank test is made here.  The finite check
    runs between the Gram's product and zheevr, where ``scipy.linalg.eigh``
    ran it.
    """
    if m.shape[1] < m.shape[0]:
        gram = m.conj().T @ m
        lam, v = _top_eigh(gram, r)
        lam, v = lam[::-1], v[:, ::-1]
        if lam.size == min(r, m.shape[1]) and lam[-1] > _GRAM_RTOL * lam[0]:
            s = np.sqrt(lam)
            return s, m @ (v / s), v.conj().T
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


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values of ``m``."""
    return float(_polar(np.asarray(m))[0].sum())
