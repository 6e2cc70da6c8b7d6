"""Sparse angular-domain channel generation.

Two generative models are provided: a clustered multipath model for a
uniform rectangular planar array (URPA) with half-wavelength element
spacing, drawn from each user's path count, and the Bernoulli-Gaussian model
used for analysis-style experiments.  Both return the M x K complex
angular-domain (beamspace) channel matrix, where few scatterers make the
channel approximately sparse.  Clustered channels reach the angular domain
through the orthonormal 2-D inverse FFT over the element grid.  That is the
adjoint of the Kronecker-DFT steering matrix, which ``steering_matrix``
still builds explicitly for ``to_angular`` and as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "ArrayGeometry",
    "steering_matrix",
    "array_response",
    "clustered_channel",
    "bernoulli_gaussian_channel",
    "to_angular",
]

@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular planar array of n_h x n_v half-wavelength-spaced elements.

    A uniform linear array is simply n_v = 1.
    """

    n_h: int
    n_v: int = 1

    def __post_init__(self) -> None:
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("array dimensions must be positive")

    @property
    def m_total(self) -> int:
        return self.n_h * self.n_v


def steering_matrix(geom: ArrayGeometry) -> np.ndarray:
    """Kronecker product of the n_v- and n_h-point unitary DFT matrices.

    The result is the M x M unitary map from the angular domain to the
    spatial domain for a URPA whose element index is m = n_v * N_h + n_h.
    """
    f_v = _dft(geom.n_v) / np.sqrt(geom.n_v)
    f_h = _dft(geom.n_h) / np.sqrt(geom.n_h)
    return np.kron(f_v, f_h)


def _dft(n: int) -> np.ndarray:
    """The n-point DFT matrix, exp(-2 pi i j k / n), formed as ``scipy.linalg.dft`` forms it."""
    omegas = np.exp(-2j * np.pi * np.arange(n) / n).reshape(-1, 1)
    return omegas ** np.arange(n)


def _responses(phi, theta, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm URPA responses on the (n_v, n_h) element grid, half a wavelength apart.

    ``phi`` and ``theta`` are scalars or equal-length 1-d arrays; the result
    has shape ``np.shape(phi) + (n_v, n_h)``.
    """
    phi = np.asarray(phi)[..., np.newaxis, np.newaxis]
    theta = np.asarray(theta)[..., np.newaxis, np.newaxis]
    iv = np.arange(geom.n_v)
    ih = np.arange(geom.n_h)
    phase = np.pi * (  # half-wavelength spacing: 2*pi*(1/2)
        iv[:, np.newaxis] * (np.sin(phi) * np.sin(theta)) + ih[np.newaxis, :] * np.cos(theta)
    )
    return np.exp(1j * phase) / np.sqrt(geom.m_total)


def array_response(phi: float, theta: float, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm URPA response vector for azimuth ``phi`` and zenith ``theta``.

    Element (n_v, n_h) carries the half-wavelength phase pi * (n_v sin(phi)
    sin(theta) + n_h cos(theta)); the flattening order (n_v outer, n_h inner)
    matches ``steering_matrix``.
    """
    return _responses(phi, theta, geom).reshape(-1)


def _angular_channel(
    paths: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]], geom: ArrayGeometry
) -> np.ndarray:
    """The M x K angular channel of explicit per-user (gains, azimuths, zeniths).

    The spatial column for user k is sqrt(M / N_paths) times the gain-weighted
    sum of array responses over that user's paths.  Every path's response
    comes from one ``_responses`` pass over all users' angles (each entry is
    computed on its own, so batching moves no bit), and each user's sum is
    one ``np.dot`` of its gains with its rows.  The angular matrix is
    U_M^H applied to the spatial matrix, computed as the orthonormal 2-D
    inverse FFT over the (n_v, n_h) element grid; ``steering_matrix`` is never
    built.
    """
    m = geom.m_total
    gains, azimuths, zeniths = zip(*paths)
    resp = _responses(np.concatenate(azimuths), np.concatenate(zeniths), geom).reshape(-1, m)
    h = np.empty((len(paths), m), dtype=np.complex128)
    start = 0
    for k, g in enumerate(gains):
        h[k] = np.sqrt(m / len(g)) * np.dot(g, resp[start : start + len(g)])
        start += len(g)
    h = h.reshape(len(paths), geom.n_v, geom.n_h)
    return np.fft.ifft2(h, axes=(1, 2), norm="ortho").reshape(len(paths), m).T


def clustered_channel(
    n_paths: Sequence[int], geom: ArrayGeometry, rng: np.random.Generator
) -> np.ndarray:
    """Clustered multipath channel: the M x K complex angular-domain matrix.

    User k has ``n_paths[k]`` paths.  Its path parameters are drawn user by
    user: gains i.i.d. standard complex Gaussian (real then imaginary parts),
    then azimuths uniform on [0, 2pi), then zeniths uniform on [-pi/2, pi/2).
    Angles are continuous, so off-grid energy leakage is present by
    construction.
    """
    if len(n_paths) < 1:
        raise ValueError("need at least one user")
    if min(n_paths) < 1:
        raise ValueError("need at least one path per user")
    paths = []
    for n in n_paths:
        gains = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        azimuths = rng.uniform(0.0, 2.0 * np.pi, n)
        zeniths = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n)
        paths.append((gains, azimuths, zeniths))
    return _angular_channel(paths, geom)


def bernoulli_gaussian_channel(
    m: int, k: int, theta: float, rng: np.random.Generator
) -> np.ndarray:
    """M x K complex matrix: i.i.d. Bernoulli(theta) mask times standard complex Gaussians."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if m < 1 or k < 1:
        raise ValueError("dimensions must be positive")
    mask = rng.random((m, k)) < theta
    g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)
    return mask * g


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
