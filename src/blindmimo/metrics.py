"""Detection-quality metrics and closed-form objective references.

Error vector magnitude, achievable-rate figures with their protocol
overheads, symbol/bit error counting, and the expected-objective envelope
used to normalize convergence traces.  Only functions and constants live
here: the per-trial record they fill, ``harness.TrialMetrics``, sits beside
``TrialRecord``, and the bits ``bit_error_rate`` compares are formed by its
caller from symbol labels (``Constellation.bits_of``).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = [
    "GAMMA1",
    "evm",
    "achievable_rate_blind",
    "achievable_rate_training",
    "theoretical_objective_bound",
    "symbol_error_rate",
    "bit_error_rate",
]

# Third moment of the magnitude of a unit-variance circular complex Gaussian
# (third raw moment of a Rayleigh variable with scale 1/sqrt(2)).
GAMMA1 = 0.75 * np.sqrt(np.pi)

# Relative floor on per-row error energy in the rate SINR; keeps the rate
# finite at (numerically) perfect recovery.
SINR_FLOOR = 1e-12


def _row_energies(x_hat: np.ndarray, x_true: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row error energy ||xhat_k - x_k||^2 and signal energy ||x_k||^2."""
    a = np.asarray(x_hat)
    b = np.asarray(x_true)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    sig = np.sum(np.abs(b) ** 2, axis=1)
    if not np.all(sig > 0):
        raise ValueError("true frame has an all-zero row")
    return np.sum(np.abs(a - b) ** 2, axis=1), sig


def evm(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Average per-user normalized squared error.

    (1/K) * sum_k ||xhat_k - x_k||^2 / ||x_k||^2 over rows.
    """
    err, sig = _row_energies(x_hat, x_true)
    return float(np.mean(err / sig))


def _row_sinr(x_hat: np.ndarray, x_true: np.ndarray) -> np.ndarray:
    err, sig = _row_energies(x_hat, x_true)
    return sig / np.maximum(err, SINR_FLOOR * sig)


def achievable_rate_blind(x_hat: np.ndarray, x_true: np.ndarray, t_len: int) -> float:
    """Sum rate of the blind protocol, charging its ambiguity overheads.

    The factor (1 - 1/T) pays for the common reference symbol; the additive
    K * ceil(log2 K) / T term pays for the user-ID headers.  Per-row error
    energy is floored at 1e-12 of the row's signal energy so perfect
    recovery stays finite.
    """
    sinr = _row_sinr(x_hat, x_true)
    k = sinr.size
    overhead = k * int(np.ceil(np.log2(k))) / t_len if k > 1 else 0.0
    return float((1.0 - 1.0 / t_len) * np.sum(np.log2(1.0 + sinr)) - overhead)


def achievable_rate_training(
    x_hat: np.ndarray, x_true: np.ndarray, t_len: int, t_pilot: int
) -> float:
    """Sum rate of a training-based protocol spending ``t_pilot`` symbols on pilots."""
    if not 0 <= t_pilot < t_len:
        raise ValueError("need 0 <= t_pilot < t_len")
    sinr = _row_sinr(x_hat, x_true)
    return float((1.0 - t_pilot / t_len) * np.sum(np.log2(1.0 + sinr)))


def theoretical_objective_bound(
    m: int,
    k_users: int,
    theta: float,
    inv_snr_per_user: Union[float, np.ndarray],
) -> Tuple[float, float]:
    """Closed-form envelope of the expected l3 objective at scale.

    For a Bernoulli(theta)-Gaussian channel with per-user inverse SNR
    r_k = sigma_z^2 / G_kk, the expected objective over the manifold lies in

        lower = gamma1 * theta * M * sum_k r_k^(3/2)
        upper = gamma1 * M * sum_k [theta * ((1 + r_k)^(3/2) - r_k^(3/2)) + r_k^(3/2)]

    where gamma1 = (3/4) sqrt(pi).  The upper value is attained (for large M)
    exactly at the planted solution, which makes it the natural normalizer
    for convergence traces.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if m < 1 or k_users < 1:
        raise ValueError("dimensions must be positive")
    r = np.asarray(inv_snr_per_user, dtype=np.float64)
    if r.ndim == 0:
        r = np.full(k_users, float(r))
    if r.shape != (k_users,) or np.any(r < 0):
        raise ValueError("inv_snr_per_user must be a nonnegative vector of length K")
    r32 = r**1.5
    lower = GAMMA1 * theta * m * float(r32.sum())
    upper = GAMMA1 * m * float(
        (theta * ((1.0 + r) ** 1.5 - r32) + r32).sum()
    )
    return lower, upper


def symbol_error_rate(decided: np.ndarray, true_symbols: np.ndarray) -> float:
    """Fraction of mismatched symbols (compare payload regions only)."""
    a = np.asarray(decided)
    b = np.asarray(true_symbols)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.mean(a != b))


def bit_error_rate(bits: np.ndarray, true_bits: np.ndarray) -> float:
    """Fraction of mismatched bits (compare payload regions only)."""
    return symbol_error_rate(bits, true_bits)
