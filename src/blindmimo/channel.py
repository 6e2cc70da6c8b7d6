"""Sparse angular-domain channel generation.

Two generative models are provided: a clustered multipath model for a
uniform rectangular planar array (URPA), and the Bernoulli-Gaussian model
used for analysis-style experiments.  Spatial channels are mapped to the
angular (beamspace) domain, where few scatterers make the channel
approximately sparse, by the orthonormal 2-D inverse FFT over the element
grid.  That is the adjoint of the Kronecker-DFT steering matrix, which
``steering_matrix`` still builds explicitly for ``to_angular`` and as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import dft

__all__ = [
    "ArrayGeometry",
    "PathSet",
    "ChannelRealization",
    "steering_matrix",
    "array_response",
    "clustered_channel",
    "bernoulli_gaussian_channel",
    "to_angular",
]

# Entries below this fraction of the peak magnitude count as zero when
# reporting the effective sparsity.  Reporting statistic only; never used
# by any solver.
EFFECTIVE_ZERO_FRACTION = 0.01


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular planar array with n_h x n_v elements.

    ``d_over_lambda`` is the element spacing in wavelengths (default half
    wavelength).  A uniform linear array is simply n_v = 1.
    """

    n_h: int
    n_v: int = 1
    d_over_lambda: float = 0.5

    def __post_init__(self) -> None:
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("array dimensions must be positive")
        if not self.d_over_lambda > 0:
            raise ValueError("element spacing must be positive")

    @property
    def m_total(self) -> int:
        return self.n_h * self.n_v


@dataclass(frozen=True)
class PathSet:
    """Multipath parameters for one user.

    Any of ``gains`` (complex path gains), ``azimuths`` (radians, [0, 2pi))
    and ``zeniths`` (radians, [-pi/2, pi/2)) may be omitted; missing vectors
    are drawn i.i.d. when the channel is generated (gains standard complex
    Gaussian, angles uniform over their ranges).
    """

    n_paths: int
    gains: Optional[np.ndarray] = None
    azimuths: Optional[np.ndarray] = None
    zeniths: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("need at least one path per user")
        for name in ("gains", "azimuths", "zeniths"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v)
            if v.shape != (self.n_paths,):
                raise ValueError(f"{name} must have shape ({self.n_paths},)")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ChannelRealization:
    """Angular-domain channel matrix (M x K) with its effective sparsity.

    ``theta_effective`` is the fraction of entries whose magnitude exceeds
    1% of the peak magnitude; it is recomputed on construction.
    """

    h_bar: np.ndarray
    model: str
    theta_effective: float = field(init=False)

    def __post_init__(self) -> None:
        h = np.array(self.h_bar, dtype=np.complex128, copy=True, order="C")
        if h.ndim != 2:
            raise ValueError("h_bar must be a 2-d matrix")
        if self.model not in ("clustered", "bernoulli_gaussian"):
            raise ValueError(f"unknown channel model tag {self.model!r}")
        mag = np.abs(h)
        peak = mag.max()
        frac = float(np.count_nonzero(mag > EFFECTIVE_ZERO_FRACTION * peak)) / h.size
        h.setflags(write=False)
        object.__setattr__(self, "h_bar", h)
        object.__setattr__(self, "theta_effective", frac)

    @property
    def m(self) -> int:
        return self.h_bar.shape[0]

    @property
    def k_users(self) -> int:
        return self.h_bar.shape[1]


def steering_matrix(geom: ArrayGeometry) -> np.ndarray:
    """Kronecker product of the n_v- and n_h-point unitary DFT matrices.

    The result is the M x M unitary map from the angular domain to the
    spatial domain for a URPA whose element index is m = n_v * N_h + n_h.
    """
    f_v = dft(geom.n_v) / np.sqrt(geom.n_v)
    f_h = dft(geom.n_h) / np.sqrt(geom.n_h)
    return np.kron(f_v, f_h)


def _responses(phi, theta, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm URPA responses on the (n_v, n_h) element grid.

    ``phi`` and ``theta`` are scalars or equal-length 1-d arrays; the result
    has shape ``np.shape(phi) + (n_v, n_h)``.
    """
    phi = np.asarray(phi)[..., np.newaxis, np.newaxis]
    theta = np.asarray(theta)[..., np.newaxis, np.newaxis]
    iv = np.arange(geom.n_v)
    ih = np.arange(geom.n_h)
    phase = (
        2.0
        * np.pi
        * geom.d_over_lambda
        * (
            iv[:, np.newaxis] * (np.sin(phi) * np.sin(theta))
            + ih[np.newaxis, :] * np.cos(theta)
        )
    )
    return np.exp(1j * phase) / np.sqrt(geom.m_total)


def array_response(phi: float, theta: float, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm URPA response vector for azimuth ``phi`` and zenith ``theta``.

    Element (n_v, n_h) carries phase 2*pi*(d/lambda) * (n_v sin(phi) sin(theta)
    + n_h cos(theta)); the flattening order (n_v outer, n_h inner) matches
    ``steering_matrix``.
    """
    return _responses(phi, theta, geom).reshape(-1)


def _complete_paths(p: PathSet, rng: np.random.Generator) -> PathSet:
    gains = p.gains
    if gains is None:
        gains = (
            rng.standard_normal(p.n_paths) + 1j * rng.standard_normal(p.n_paths)
        ) / np.sqrt(2.0)
    azimuths = p.azimuths
    if azimuths is None:
        azimuths = rng.uniform(0.0, 2.0 * np.pi, p.n_paths)
    zeniths = p.zeniths
    if zeniths is None:
        zeniths = rng.uniform(-np.pi / 2.0, np.pi / 2.0, p.n_paths)
    return PathSet(p.n_paths, np.asarray(gains), np.asarray(azimuths), np.asarray(zeniths))


def clustered_channel(
    path_sets: Sequence[PathSet],
    geom: ArrayGeometry,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Clustered multipath channel, returned in the angular domain.

    The spatial column for user k is sqrt(M / N_paths) times the gain-weighted
    sum of array responses over that user's paths.  The angular matrix is
    U_M^H applied to the spatial matrix, computed as the orthonormal 2-D
    inverse FFT over the (n_v, n_h) element grid; ``steering_matrix`` is never
    built.  Angles are continuous, so off-grid energy leakage is present by
    construction.
    """
    if len(path_sets) < 1:
        raise ValueError("need at least one user")
    m = geom.m_total
    h = np.empty((len(path_sets), geom.n_v, geom.n_h), dtype=np.complex128)
    for k, p in enumerate(path_sets):
        p = _complete_paths(p, rng)
        resp = _responses(p.azimuths, p.zeniths, geom)
        h[k] = np.sqrt(m / p.n_paths) * np.tensordot(p.gains, resp, axes=1)
    h_bar = np.fft.ifft2(h, axes=(1, 2), norm="ortho").reshape(len(path_sets), m)
    return ChannelRealization(h_bar.T, "clustered")


def bernoulli_gaussian_channel(
    m: int, k: int, theta: float, rng: np.random.Generator
) -> ChannelRealization:
    """I.i.d. Bernoulli(theta) mask times standard complex Gaussian entries."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if m < 1 or k < 1:
        raise ValueError("dimensions must be positive")
    mask = rng.random((m, k)) < theta
    g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)
    return ChannelRealization(mask * g, "bernoulli_gaussian")


def to_angular(y: np.ndarray, u_m: np.ndarray) -> np.ndarray:
    """Project a spatial-domain matrix into the angular domain: U_M^H Y."""
    y = np.asarray(y, dtype=np.complex128)
    u_m = np.asarray(u_m, dtype=np.complex128)
    if u_m.ndim != 2 or u_m.shape[0] != u_m.shape[1]:
        raise ValueError("steering matrix must be square")
    if y.ndim != 2 or y.shape[0] != u_m.shape[0]:
        raise ValueError(
            f"dimension mismatch: y has {y.shape[0]} rows, U_M is {u_m.shape[0]} x {u_m.shape[1]}"
        )
    return u_m.conj().T @ y
