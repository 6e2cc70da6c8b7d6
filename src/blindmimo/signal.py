"""Transmit frames, constellations, and received-signal synthesis.

A frame is a K x T symbol matrix scaled by 1/sqrt(T), which puts the frame
Gram matrix X X^H near the identity (unit-power rows, near-orthogonal across
users).  Column 1 carries one reference symbol common to all users (it
anchors the per-user phase at the receiver); the next ceil(log_|S| K)
columns encode each user's index as base-|S| digits (they anchor the row
permutation); the rest is payload.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constellation",
    "TransmitFrame",
    "FrameMeta",
    "build_constellation",
    "header_length",
    "build_frame",
    "synthesize_received",
    "concentration_statistic",
    "snr_to_noise_variance",
]

# Gray-labelled 4-PAM level of each 2-bit label: adjacent levels differ in one bit.
_PAM4_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0])


@dataclass(frozen=True)
class Constellation:
    """A normalized symbol alphabet with Gray-coded labels.

    ``points[g]`` is the constellation point whose Gray label (bits read
    big-endian as an integer) is g.  The alphabet has zero mean and unit
    average power.
    """

    name: str
    points: np.ndarray
    bits_per_symbol: int

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.complex128, copy=True)
        if pts.ndim != 1 or pts.size != 2**self.bits_per_symbol:
            raise ValueError("alphabet size must be 2**bits_per_symbol")
        if not abs(pts.sum()) < 1e-12:
            raise ValueError("alphabet must have zero mean")
        if not abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12:
            raise ValueError("alphabet must have unit average power")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.size

    def bits_of(self, labels: np.ndarray) -> np.ndarray:
        """Big-endian bits of integer Gray labels, shape (...,) -> (..., bps)."""
        labels = np.asarray(labels)
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        return ((labels[..., np.newaxis] >> shifts) & 1).astype(np.uint8)


@functools.lru_cache(maxsize=None)
def build_constellation(kind: str) -> Constellation:
    """The supported constellation named exactly ``"qpsk"`` or ``"qam16"``.

    Each name is built once: every call returns the same instance, which is
    safe to share because a ``Constellation`` is frozen and its points are
    read-only.
    """
    if kind == "qpsk":
        labels = np.arange(4)
        re = 1.0 - 2.0 * ((labels >> 1) & 1)
        im = 1.0 - 2.0 * (labels & 1)
        points = (re + 1j * im) / np.sqrt(2.0)
        return Constellation("qpsk", points, 2)
    if kind == "qam16":
        labels = np.arange(16)
        re = _PAM4_LEVELS[labels >> 2]
        im = _PAM4_LEVELS[labels & 3]
        points = (re + 1j * im) / np.sqrt(10.0)
        return Constellation("qam16", points, 4)
    raise ValueError(f"unsupported constellation {kind!r}")


def header_length(k_users: int, alphabet_size: int) -> int:
    """Smallest L with alphabet_size**L >= k_users (user-ID header symbols)."""
    if k_users < 1:
        raise ValueError("k_users must be positive")
    n, length = 1, 0
    while n < k_users:
        n *= alphabet_size
        length += 1
    return length


@dataclass(frozen=True)
class FrameMeta:
    """Receiver-side frame knowledge: reference symbol and user-ID codebook.

    This is the receiver's only side information.  ``ref_value`` and
    ``id_headers`` are in constellation units (before the 1/sqrt(T) frame
    scaling); ``id_headers[k]`` holds user k's header labels.
    """

    ref_value: complex
    id_headers: np.ndarray

    @property
    def k_users(self) -> int:
        return self.id_headers.shape[0]

    @property
    def header_len(self) -> int:
        return self.id_headers.shape[1]


@dataclass(frozen=True)
class TransmitFrame:
    """Transmitted K x T frame with its receiver metadata and Gray symbol labels.

    ``x[:, 0]`` must carry ``meta.ref_value`` / sqrt(T), and ``meta`` must
    hold one header per user, pairwise distinct.
    """

    x: np.ndarray
    meta: FrameMeta
    symbol_indices: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.complex128, copy=True, order="C")
        k, t = x.shape
        ref_scaled = self.meta.ref_value / np.sqrt(t)
        if not np.all(np.abs(x[:, 0] - ref_scaled) <= 1e-12):  # a NaN fails
            raise ValueError("first column must carry the common reference symbol")
        headers = np.asarray(self.meta.id_headers)
        if headers.shape[0] != k:
            raise ValueError("one ID header per user required")
        if len({tuple(row) for row in headers.tolist()}) != k:
            raise ValueError("user-ID headers must be pairwise distinct")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def payload_start(self) -> int:
        """First payload column (reference plus header columns precede it)."""
        return 1 + self.meta.header_len


def build_frame(
    k_users: int, t_len: int, c: Constellation, rng: np.random.Generator
) -> TransmitFrame:
    """Assemble a frame: reference column, user-ID headers, random payload.

    User k's index is written big-endian in base |S| and mapped through the
    Gray labelling, which is the shortest injective header of the required
    length.  The whole matrix is scaled by 1/sqrt(T).
    """
    hlen = header_length(k_users, c.size)
    if t_len <= 1 + hlen:
        raise ValueError(
            f"frame of length {t_len} too short for reference plus {hlen} header symbols"
        )
    idx = np.empty((k_users, t_len), dtype=np.int64)
    idx[:, 0] = 0
    users = np.arange(k_users)
    for j in range(hlen):
        idx[:, 1 + j] = (users // c.size ** (hlen - 1 - j)) % c.size
    idx[:, 1 + hlen :] = rng.integers(0, c.size, size=(k_users, t_len - 1 - hlen))
    meta = FrameMeta(complex(c.points[0]), idx[:, 1 : 1 + hlen].copy())
    return TransmitFrame(x=c.points[idx] / np.sqrt(t_len), meta=meta, symbol_indices=idx)


def synthesize_received(
    h_bar: np.ndarray, x: np.ndarray, gains: np.ndarray, sigma_z2: float, rng: np.random.Generator
) -> np.ndarray:
    """Synthesize the M x T block Y = Hbar (G P)^(1/2) X + Z in the angular domain.

    ``h_bar`` is the M x K channel matrix and ``x`` the K x T symbols (a
    frame's ``x``, or pilots), and ``gains`` the received gains G P (fading
    times power), strictly positive, subnormal ones included.  Noise entries
    are i.i.d. circularly symmetric complex Gaussian with variance
    ``sigma_z2`` (real and imaginary parts each sigma_z2 / 2).
    """
    h = np.asarray(h_bar)
    x = np.asarray(x)
    g = np.asarray(gains, dtype=np.float64)
    k = x.shape[0]
    if h.shape[1] != k or g.shape != (k,):
        raise ValueError("channel, frame and gains disagree on the number of users")
    if not np.all(g > 0):
        raise ValueError("gains must be strictly positive")
    if sigma_z2 < 0:
        raise ValueError("noise variance must be nonnegative")
    shape = (h.shape[0], x.shape[1])
    noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(sigma_z2 / 2.0)
    return (h * np.sqrt(g)[np.newaxis, :]) @ x + noise


def snr_to_noise_variance(snr_db: float, gain_sum: float, t_len: int) -> float:
    """Per-entry noise variance sum(G P) / (SNR * T); ``gain_sum`` is K for unit-gain users."""
    return gain_sum / (10.0 ** (snr_db / 10.0) * t_len)


def concentration_statistic(x: np.ndarray) -> float:
    """Distance of the K x T frame's Gram matrix from identity: ||X X^H - I||_F / sqrt(K).

    Small values mean X^H sits near the Stiefel manifold, which is what the
    blind formulation relies on; the statistic concentrates exponentially
    fast as T grows.
    """
    x = np.asarray(x)
    k = x.shape[0]
    gram = x @ x.conj().T
    return float(np.linalg.norm(gram - np.eye(k)) / np.sqrt(k))
