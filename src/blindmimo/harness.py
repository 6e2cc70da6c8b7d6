"""Seeded Monte Carlo experiment orchestration and result persistence.

Every trial's random stream is derived from (base_seed, sweep index, trial
index, purpose tag) through a counter-based seed sequence, so runs are fully
reproducible, order-independent, and paired across methods: all methods at a
given (sweep value, trial) see the same channel, frame, and noise.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import numbers
import os
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import detector, metrics
from .channel import ArrayGeometry, bernoulli_gaussian_channel, clustered_channel
from .detector import SolverOptions
from .manifold import RankDeficientError, random_stiefel
from .metrics import theoretical_objective_bound
from .signal import (
    TransmitFrame,
    build_constellation,
    build_frame,
    concentration_statistic,
    header_length,
    snr_to_noise_variance,
    synthesize_received,
)

__all__ = [
    "SystemConfig",
    "TrialMetrics",
    "TrialRecord",
    "Scenario",
    "DEFAULT_CONCENTRATION_C",
    "build_scenario",
    "run_sweep",
    "run_concentration_experiment",
    "run_convergence_experiment",
    "convergence_variants",
    "emit_report",
    "emit_convergence",
    "emit_concentration",
    "read_records",
    "concentration_tail_bound",
    "concentration_crossover",
]

KNOWN_METHODS = (*detector.BLIND_METHODS, "pilot")

# Curve constants fitted to the concentration tail for QPSK frames.
DEFAULT_CONCENTRATION_C = {4: 0.416, 8: 0.464}

# Carrier frequency (GHz) for the log-distance fading model.
_FADING_FC_GHZ = 28.0

# Largest power, and by mirror sigma_z2 and 1 / linear SNR: a margin, not a limit of any method.  With
# the noise scaled alike, l3, l4 and pilot decide the same from power 1e-300 to 1e307 (identity fading,
# K = 4, M = 32, T = 60, 8 pilots); the first to fail past the caps is the l3 envelope, whose r^1.5
# overflows from sigma_z2 ~ 1e204 or snr_db ~ -2052 dB on that config.  Power has no lower cap: l3, l4
# and pilot decide as at power 1 down to subnormal G P (README, "Any units"); a G P of 0 is an error record.
_MAX_SCALE = 1e30
_MIN_SNR_DB = -300.0


@dataclass(frozen=True)
class SystemConfig:
    """One simulated scenario: array, frame, channel, noise, and solver knobs.

    ``snr_db`` maps to the per-entry noise variance sum(G P) / (T * SNR), on
    the received gains G P; set ``sigma_z2`` to bypass the mapping with an
    explicit variance.  ``theta`` drives the Bernoulli-Gaussian model and
    ``n_paths`` the clustered model.  A config whose pilot baseline ends some
    trials as error records is accepted (README, "Reproducibility").
    """

    k_users: int = 8
    t_len: int = 240
    n_h: int = 256
    n_v: int = 1
    snr_db: float = 20.0
    theta: float = 0.1
    n_paths: int = 5
    channel_model: str = "clustered"
    constellation: str = "qpsk"
    fading_model: str = "identity"
    power: Union[float, Tuple[float, ...]] = 1.0
    trials: int = 100
    base_seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)
    t_pilot: int = 6
    pilot_lambda: float = 2.0
    sigma_z2: Optional[float] = None

    def __post_init__(self) -> None:
        ints = ("k_users", "t_len", "n_h", "n_v", "n_paths", "trials", "base_seed", "t_pilot")
        reals = ("snr_db", "theta", "pilot_lambda") + ("sigma_z2",) * (self.sigma_z2 is not None)
        powers = self.power if isinstance(self.power, tuple) else (self.power,)
        for name, v in [(n, getattr(self, n)) for n in ints + reals] + [("power", p) for p in powers]:
            kind, what = (numbers.Integral, "an integer") if name in ints else (numbers.Real, "a real number")
            if isinstance(v, bool) or not isinstance(v, kind):  # NumPy numbers pass; "20" and True never do
                raise ValueError(f"{name} must be {what}, got {v!r}")
        if min(self.k_users, self.t_len, self.n_h, self.n_v) < 1:
            raise ValueError("dimensions must be positive")
        if self.m < self.k_users:
            raise ValueError(
                f"need at least as many antennas as users, got M={self.m} < K={self.k_users}"
            )
        if self.t_len < self.k_users:  # St_K(C^T) is empty
            raise ValueError(f"need at least as many symbols as users, got T={self.t_len} < K={self.k_users}")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        if self.channel_model not in ("clustered", "bernoulli_gaussian"):
            raise ValueError(f"unknown channel model {self.channel_model!r}")
        if self.fading_model not in ("identity", "log_distance"):
            raise ValueError(f"unknown fading model {self.fading_model!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        if self.sigma_z2 is not None and not 0 <= self.sigma_z2 <= _MAX_SCALE:
            raise ValueError(f"sigma_z2 must be finite, >= 0 and at most {_MAX_SCALE:g}, got {self.sigma_z2}")
        if not 0 <= self.pilot_lambda < math.inf:
            raise ValueError(f"pilot_lambda must be finite and >= 0, got {self.pilot_lambda}")
        if not self.snr_db >= _MIN_SNR_DB:  # NaN fails too; +inf means noiseless
            raise ValueError(f"snr_db must be a number >= {_MIN_SNR_DB:g} dB, got {self.snr_db}")
        try:
            10.0 ** (self.snr_db / 10.0)  # the linear SNR the noise variance divides by
        except OverflowError:
            raise ValueError(f"snr_db={self.snr_db} overflows as linear SNR; use inf for noiseless") from None
        self.power_vector()
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 1 <= self.t_pilot < self.t_len:
            raise ValueError("t_pilot must lie in [1, t_len)")
        if not isinstance(self.constellation, str):  # a cached build_constellation needs a hashable name
            raise ValueError(f"unsupported constellation {self.constellation!r}")
        c = build_constellation(self.constellation)
        hlen = header_length(self.k_users, c.size)
        if self.t_len <= 1 + hlen:
            raise ValueError("t_len too short for reference and header symbols")

    @property
    def m(self) -> int:
        return self.n_h * self.n_v

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_h, self.n_v)

    def power_vector(self) -> np.ndarray:
        p = np.asarray(self.power, dtype=np.float64)
        if p.ndim == 0:
            p = np.full(self.k_users, float(p))
        if p.shape != (self.k_users,) or not np.all((p > 0) & (p <= _MAX_SCALE)):
            raise ValueError(f"power must be finite, positive and at most {_MAX_SCALE:g} (scalar or K-vector)")
        return p

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a map of field names to values, got a {type(d).__name__}")
        d = dict(d)
        solver = d.pop("solver", None)
        if not isinstance(solver, (dict, type(None))):
            raise ValueError(f"solver must be null or a map of option names to values, got {solver!r}")
        unknown = [k for k in d if k not in cls.__dataclass_fields__]
        unknown += [f"solver.{k}" for k in solver or {} if k not in SolverOptions.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(d.get("power"), list):
            d["power"] = tuple(d["power"])
        try:
            opts = SolverOptions(**(solver or {}))
        except ValueError as exc:
            raise ValueError(f"solver.{exc}") from None
        return cls(**d, solver=opts)

    def to_dict(self) -> dict:
        return asdict(self)

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _seed_sequence(base_seed: int, *tags: Union[int, str]) -> np.random.SeedSequence:
    """The seed sequence of (base_seed, tags); the base seed is passed whole, so none alias."""
    words = [int(base_seed)]
    for t in tags:
        words.append(zlib.crc32(t.encode()) if isinstance(t, str) else int(t) & 0xFFFFFFFF)
    return np.random.SeedSequence(words)


def _stream(base_seed: int, *tags: Union[int, str]) -> np.random.Generator:
    """Counter-based derived stream: independent of call order across trials."""
    return np.random.default_rng(_seed_sequence(base_seed, *tags))


@dataclass(frozen=True)
class Scenario:
    """Everything all methods share within one trial.

    ``channel`` is the M x K angular-domain matrix, ``g_diag`` the fading G
    the blind solvers weight by, and ``gains`` the received gain G P (P the
    config's ``power_vector``; subnormal is fine), formed once for the
    frame, the pilots, the SNR mapping and the pilot baseline.
    """

    channel: np.ndarray
    frame: TransmitFrame
    g_diag: np.ndarray
    gains: np.ndarray
    sigma_z2: float
    y_bar: np.ndarray

    @property
    def digest(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.y_bar).data).hexdigest()[:12]


def _draw_fading(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.fading_model == "identity":
        return np.ones(cfg.k_users)
    # Log-distance path loss at 28 GHz with complex-normal shadowing; its
    # real part, the first row of the draw, is the dB perturbation.
    d = rng.uniform(20.0, 200.0, cfg.k_users)
    chi_db = np.sqrt(4.2 / 2.0) * rng.standard_normal((2, cfg.k_users))[0]
    g_db = -32.4 - 18.5 * np.log10(d) - 20.0 * np.log10(_FADING_FC_GHZ) + chi_db
    return 10.0 ** (g_db / 10.0)


def _noise_variance(cfg: SystemConfig, gains: np.ndarray) -> float:
    """``sigma_z2``, or the variance ``snr_db`` maps to on the received gains G P."""
    if cfg.sigma_z2 is not None:
        return float(cfg.sigma_z2)
    return snr_to_noise_variance(cfg.snr_db, float(gains.sum()), cfg.t_len)


def _draw_channel(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.channel_model == "bernoulli_gaussian":
        return bernoulli_gaussian_channel(cfg.m, cfg.k_users, cfg.theta, rng)
    return clustered_channel([cfg.n_paths] * cfg.k_users, cfg.geometry, rng)


def build_scenario(cfg: SystemConfig, rng: np.random.Generator) -> Scenario:
    """Draw fading, channel, frame, and noise for one trial; RankDeficientError names users whose G P is 0."""
    c = build_constellation(cfg.constellation)
    g = _draw_fading(cfg, rng)
    gains = g * cfg.power_vector()
    if not gains.all():
        raise RankDeficientError(f"the received gains G P of users {np.flatnonzero(gains == 0).tolist()} are 0")
    sigma_z2 = _noise_variance(cfg, gains)
    channel = _draw_channel(cfg, rng)
    frame = build_frame(cfg.k_users, cfg.t_len, c, rng)
    y_bar = synthesize_received(channel, frame.x, gains, sigma_z2, rng)
    return Scenario(channel=channel, frame=frame, g_diag=g, gains=gains, sigma_z2=sigma_z2, y_bar=y_bar)


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial summary of one detection run.

    ``rate`` is the method's own protocol rate (``achievable_rate_blind``, or
    ``achievable_rate_training`` for pilot).  ``normalized_objective`` is the
    final solver objective over the expected-objective upper envelope, which
    bounds the third-power objective of an unpreconditioned Bernoulli-Gaussian
    block with unit fading and power; it is None for l4, pilot and any trial
    outside that setting.  ``iters`` counts solver update steps (for pilot, its 500 soft-threshold steps).
    ``wall_time`` is kept in memory for profiling but excluded from
    serialized records so outputs stay bit-reproducible.
    """

    evm: float
    ser: float
    ber: float
    rate: float
    normalized_objective: Optional[float]
    iters: int
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.evm >= 0:
            raise ValueError("evm must be nonnegative")
        for name in ("ser", "ber"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class TrialRecord:
    """One (method, sweep value, trial) outcome, flat enough to serialize.

    ``restarts`` is the solver's restart count (0 for pilot and for errors);
    it defaults to 0 so records written before it existed still load, as do
    records with a top-level ``iters`` and metrics ``rate_blind``/``rate_training``.
    An error record's NaN ``final_eta`` is written as null (strict JSON) and loads back as NaN.
    A trial with a G P of 0 has no block: each method's error record has an empty ``scenario_digest``.
    """

    fingerprint: str
    sweep_param: str
    sweep_value: float
    method: str
    trial: int
    seed: int
    scenario_digest: str
    metrics: Optional[TrialMetrics]
    stop_reason: str
    final_eta: float
    error: Optional[str] = None
    restarts: int = 0

    def to_json(self) -> str:
        d = dict(vars(self))  # the fields as they are; asdict would deep-copy each
        if self.metrics is not None:
            d["metrics"] = dict(vars(self.metrics))
            d["metrics"].pop("wall_time")  # excluded: timings would break bit-reproducibility
        d["final_eta"] = d["final_eta"] if math.isfinite(d["final_eta"]) else None  # strict JSON
        return json.dumps(d, sort_keys=True, separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        d = json.loads(line)
        d["final_eta"] = float("nan") if d["final_eta"] is None else d["final_eta"]
        d.pop("iters", None)
        m = d.pop("metrics")
        if m is not None and "rate" not in m:
            blind, training = m.pop("rate_blind"), m.pop("rate_training")
            m["rate"] = blind if blind is not None else training
        return cls(metrics=TrialMetrics(**m) if m is not None else None, **d)


def _l3_envelope(cfg: SystemConfig) -> Optional[float]:
    """The expected-l3 upper envelope; None unless Bernoulli-Gaussian, unit G and P, unpreconditioned."""
    if not (cfg.channel_model == "bernoulli_gaussian" and cfg.fading_model == "identity"
            and not cfg.solver.precondition and bool(np.all(cfg.power_vector() == 1.0))):
        return None
    sigma = _noise_variance(cfg, np.ones(cfg.k_users))
    return theoretical_objective_bound(cfg.m, cfg.k_users, cfg.theta, np.full(cfg.k_users, sigma))[1]


def _run_method(
    cfg: SystemConfig, scenario: Scenario, method: str, rng: np.random.Generator
) -> dict:
    """Run one method on a scenario; returns the record fields its outcome determines."""
    c = build_constellation(cfg.constellation)
    frame = scenario.frame
    if method == "pilot":
        # Training phase: random unit-power pilot symbols (the 1/sqrt(T) frame scaling is a
        # data-concentration device), received through the frame's gains G P with their own
        # noise.  The baseline gets the same gains, so it estimates the unit-power frame.
        x_pilot = c.points[rng.integers(0, c.size, size=(cfg.k_users, cfg.t_pilot))]
        y_train = synthesize_received(scenario.channel, x_pilot, scenario.gains, scenario.sigma_z2, rng)
        t0 = time.perf_counter()
        x_hat = detector.pilot_zf_baseline(y_train, x_pilot, scenario.y_bar, scenario.gains, cfg.pilot_lambda)
        elapsed = time.perf_counter() - t0
        indices = detector.demodulate(x_hat, c)
        fields = dict(stop_reason="max_iters", final_eta=0.0, restarts=0)
        own = dict(rate=metrics.achievable_rate_training(x_hat, frame.x, cfg.t_len, cfg.t_pilot),
                   normalized_objective=None, iters=detector.PILOT_ITERS)
    else:
        t0 = time.perf_counter()
        result = detector.detect(scenario.y_bar, scenario.g_diag, frame.meta, c, cfg.solver, rng, method)
        elapsed = time.perf_counter() - t0
        x_hat, indices, trace = result.x_hat, result.symbol_indices, result.trace
        fields = dict(stop_reason=trace.stop_reason, final_eta=trace.final_eta,
                      restarts=trace.restarts)
        own = dict(rate=metrics.achievable_rate_blind(x_hat, frame.x, cfg.t_len),
                   normalized_objective=None, iters=trace.iters_run)
        upper = _l3_envelope(cfg) if method != "l4" else None  # l4's fourth-power objective has no envelope
        if upper is not None:
            own["normalized_objective"] = trace.final_objective / upper
    decided, sent = indices[:, frame.payload_start:], frame.symbol_indices[:, frame.payload_start:]
    tm = TrialMetrics(
        evm=metrics.evm(x_hat, frame.x),
        ser=metrics.symbol_error_rate(decided, sent),
        ber=metrics.bit_error_rate(c.bits_of(decided), c.bits_of(sent)),
        wall_time=elapsed,
        **own,
    )
    return dict(metrics=tm, **fields)


def run_sweep(
    cfg: SystemConfig,
    sweep_param: str,
    sweep_values: Iterable[float],
    methods: Sequence[str] = ("l3",),
) -> Iterator[TrialRecord]:
    """Monte Carlo sweep over one config parameter, one record per (method, value, trial).

    A RankDeficientError, the package's one per-trial failure, is captured
    in the record (``error`` set, ``stop_reason == "error"``) rather than
    raised; any other exception propagates.  The stream is
    deterministic given the config and base seed.  Each method sets its own
    objective exponent; ``normalized_objective`` is set only for l3 and rgd
    where the l3 envelope holds (see ``_l3_envelope``), else None.
    The values may be any iterable (a list, a NumPy array, a generator).
    A record holds its sweep value as a strict-JSON float, so the values
    must be finite real numbers (not bools), at least one, and ``solver`` is
    not a sweep parameter; ``methods`` must name at least one method, each
    once.  Every input is checked, and every value's config built, at the
    call; the returned iterator then yields the records one at a time.  A sweep of
    ``t_pilot`` or ``pilot_lambda``, which only the pilot baseline reads,
    gives every value's trial j the scenario of sweep index 0.
    """
    methods = tuple(methods)
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods must name at least one method, each once, got {methods}")
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {KNOWN_METHODS}")
    if sweep_param not in SystemConfig.__dataclass_fields__ or sweep_param == "solver":
        raise ValueError(f"{sweep_param!r} is not a sweep parameter")
    sweep_values = list(sweep_values)
    if not sweep_values:
        raise ValueError(f"sweep of {sweep_param!r} has no values")
    points = []
    for value in sweep_values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            hint = '; for a noiseless run set "snr_db": Infinity in the config' if value == math.inf else ""
            raise ValueError(f"sweep values of {sweep_param!r} must be finite real numbers, got {value!r}{hint}")
        points.append((value, replace(cfg, **{sweep_param: value})))
    fingerprint = cfg.fingerprint()

    def records() -> Iterator[TrialRecord]:
        for si, (value, cfg_i) in enumerate(points):
            key = 0 if sweep_param in ("t_pilot", "pilot_lambda") else si
            for trial in range(cfg_i.trials):
                try:
                    scenario = build_scenario(cfg_i, _stream(cfg_i.base_seed, key, trial, "scenario"))
                    digest, unbuilt = scenario.digest, None
                except RankDeficientError as exc:
                    digest, unbuilt = "", exc
                for method in methods:
                    seq = _seed_sequence(cfg_i.base_seed, si, trial, method)
                    try:
                        if unbuilt:
                            raise unbuilt
                        outcome = _run_method(cfg_i, scenario, method, np.random.default_rng(seq))
                    except RankDeficientError as exc:
                        outcome = dict(metrics=None, stop_reason="error", final_eta=float("nan"),
                                       error=f"{type(exc).__name__}: {exc}")
                    yield TrialRecord(
                        fingerprint=fingerprint,
                        sweep_param=sweep_param,
                        sweep_value=float(value),
                        method=method,
                        trial=trial,
                        seed=int(seq.generate_state(1)[0]),
                        scenario_digest=digest,
                        **outcome,
                    )

    return records()


def _concentration_delta(threshold: float) -> float:
    """The delta whose level (1/ln 2) * max(delta, delta^2) equals ``threshold``."""
    tau = threshold * np.log(2.0)
    return tau if tau <= 1.0 else np.sqrt(tau)


def concentration_tail_bound(t_len: int, k_users: int, threshold: float, c_const: float) -> float:
    """Tail bound on Pr[||XX^H - I||_F / sqrt(K) > threshold].

    The exponential concentration statement bounds the tail at level
    (1/ln 2) * S_inf^2 * max(delta, delta^2), where S_inf = 1 for the QPSK
    frames the curve constants are fitted to; inverting that level for the
    requested threshold gives the delta that enters the exponent
    2 exp(-(delta sqrt(T) / C - sqrt(K))^2).
    """
    delta = _concentration_delta(threshold)
    return float(2.0 * np.exp(-((delta * np.sqrt(t_len) / c_const - np.sqrt(k_users)) ** 2)))


def concentration_crossover(k_users: int, threshold: float, c_const: float) -> float:
    """Smallest T at which the tail bound drops below 1 (becomes informative)."""
    delta = _concentration_delta(threshold)
    return float((c_const * (np.sqrt(k_users) + np.sqrt(np.log(2.0))) / delta) ** 2)


def run_concentration_experiment(
    k_list: Sequence[int],
    t_list: Sequence[int],
    delta_sq: float,
    trials: int,
    base_seed: int = 0,
) -> List[dict]:
    """Empirical vs. theoretical Gram-concentration tail over i.i.d. QPSK frames.

    Counts the frequency of ||XX^H - I||_F / sqrt(K) exceeding sqrt(delta_sq)
    for i.i.d. QPSK matrices normalized by 1/sqrt(T), next to the
    exponential tail bound with the curve constant C of
    ``DEFAULT_CONCENTRATION_C`` (fitted for QPSK at K = 4 and K = 8).  Every
    K and T is checked, and a repeated one rejected, before the first trial.
    """
    if base_seed < 0:
        raise ValueError("base_seed must be nonnegative")
    if trials < 100:
        raise ValueError("need at least 100 trials per point")
    if not 0 < delta_sq < math.inf:
        raise ValueError(f"delta_sq must be finite and positive, got {delta_sq}")
    if not k_list or not t_list:
        raise ValueError(f"k_list and t_list must each hold a value, got {list(k_list)}, {list(t_list)}")
    if min(t_list) < 1:
        raise ValueError(f"every t_len must be at least 1, got {min(t_list)}")
    for name, values in (("k_list", k_list), ("t_list", t_list)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{name} repeats {repeated[0]}")
    for k in k_list:
        if k not in DEFAULT_CONCENTRATION_C:
            raise ValueError(f"no curve constant for K={k}")
    c = build_constellation("qpsk")
    threshold = math.sqrt(delta_sq)
    rows = []
    for k in k_list:
        c_const = DEFAULT_CONCENTRATION_C[k]
        for t in t_list:
            rng = _stream(base_seed, "concentration", k, t)
            exceed = 0
            for _ in range(trials):
                x = c.points[rng.integers(0, c.size, size=(k, t))] / np.sqrt(t)
                exceed += concentration_statistic(x) > threshold
            rows.append(
                {
                    "k_users": k,
                    "t_len": t,
                    "trials": trials,
                    "empirical": exceed / trials,
                    "theoretical": concentration_tail_bound(t, k, threshold, c_const),
                    "crossover_t": concentration_crossover(k, threshold, c_const),
                    "c_const": c_const,
                }
            )
    return rows


def convergence_variants(
    base: SystemConfig, overrides: Optional[Dict[str, dict]] = None
) -> Dict[str, SystemConfig]:
    """``base`` plus one config per named override of its fields; no override may be named ``base``.

    No or empty overrides give ``theta_half`` (theta / 2), ``k_half`` (K // 2,
    at least 1) and ``noise_tenth`` (sigma_z2 / 10 when set, else SNR + 10 dB).
    A ``solver`` map in an override replaces only the options it names.
    Overrides that are not a map, or a variant that is not one, raise ValueError.
    """
    if not isinstance(overrides, (dict, type(None))):
        raise ValueError(f"variants must be null or a map of names to config overrides, got {overrides!r}")
    if not overrides:
        noise = ({"sigma_z2": base.sigma_z2 / 10.0} if base.sigma_z2 is not None
                 else {"snr_db": base.snr_db + 10.0})
        overrides = {"theta_half": {"theta": base.theta / 2.0},
                     "k_half": {"k_users": max(1, base.k_users // 2)},
                     "noise_tenth": noise}
    elif "base" in overrides:
        raise ValueError("variant name 'base' is the config's own; rename that override")
    elif bad := [name for name, over in overrides.items() if not isinstance(over, dict)]:
        raise ValueError(f"variants {bad} must each be a map of config fields to values")
    variants = {"base": base}
    for name, over in overrides.items():
        d = {**base.to_dict(), **over}
        if isinstance(over.get("solver"), dict):
            d["solver"] = {**asdict(base.solver), **over["solver"]}
        variants[name] = SystemConfig.from_dict(d)
    return variants


def run_convergence_experiment(variants: Dict[str, SystemConfig], level: float = 0.9) -> Dict[str, dict]:
    """Normalized per-iteration objective traces for each config variant, and their summary.

    Data is drawn with an exactly orthonormal frame (X^H on the Stiefel
    manifold), a Bernoulli-Gaussian channel and unit fading and power, so
    the expected-objective upper envelope is the correct normalizer; traces
    are objective divided by that envelope.  A config where the envelope
    does not hold (``_l3_envelope``) is rejected, as are a non-finite ``level``
    and a variant name that holds a path separator or NUL (it names a file
    in ``emit_convergence``), all before the first trial.  Each variant runs
    its config's ``trials``; variants with the same ``base_seed`` share one
    derived stream per trial index, so equal-shape variants see identical draws
    (and a smaller theta sees a nested channel support): comparisons are paired.

    Each entry holds ``upper_bound``, ``sigma_z2``, the ``traces``, their
    per-iterate ``mean_curve`` (a stopped trace held at its last value),
    ``median_iters_to_level`` (inf where half or more never reach ``level``),
    and the ``level`` and ``trials`` it was run with.
    """
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    for name in variants:
        if "\0" in name or any(sep and sep in name for sep in (os.sep, os.altsep)):
            raise ValueError(f"variant name {name!r} holds a path separator or NUL")
    uppers = {name: _l3_envelope(cfg) for name, cfg in variants.items()}
    if None in uppers.values():
        raise ValueError(
            "convergence experiment normalizes by the l3 envelope: channel_model must be "
            "bernoulli_gaussian, and solver.precondition, fading_model and power must keep "
            "their defaults"
        )
    out: Dict[str, dict] = {}
    for name, cfg in variants.items():
        ones = np.ones(cfg.k_users)
        sigma = _noise_variance(cfg, ones)
        traces = []
        for trial in range(cfg.trials):
            rng = _stream(cfg.base_seed, "convergence", trial)
            x = random_stiefel(cfg.t_len, cfg.k_users, rng).conj().T
            channel = bernoulli_gaussian_channel(cfg.m, cfg.k_users, cfg.theta, rng)
            y_bar = synthesize_received(channel, x, ones, sigma, rng)
            _, trace = detector.solve(y_bar, ones, cfg.solver, rng)
            traces.append(trace.objective_per_iter / uppers[name])
        # np.mean per iterate: an axis-0 mean sums in another order and moves the last bits.
        mean_curve = np.array([np.mean([t[min(j, len(t) - 1)] for t in traces])
                               for j in range(max(len(t) for t in traces))])
        median = _median([_iterations_to_level(t, level) for t in traces])
        out[name] = {"upper_bound": uppers[name], "sigma_z2": sigma, "traces": traces,
                     "mean_curve": mean_curve, "median_iters_to_level": median,
                     "level": level, "trials": cfg.trials}
    return out


def _iterations_to_level(trace: np.ndarray, level: float) -> float:
    """First iteration index at which a trace reaches ``level``; inf if it never does."""
    above = np.flatnonzero(np.asarray(trace) >= level)
    return float(above[0]) if above.size else float("inf")


def _median(values) -> float:
    """``np.median(values)`` bit for bit, without the ``numpy.ma`` import that ``np.median`` makes."""
    v = np.asarray(values, dtype=np.float64)
    mid, odd = divmod(v.size, 2)
    part = np.partition(v, [mid, -1] if odd else [mid - 1, mid, -1])  # np.median's own; a NaN goes last
    return float(part[-1] if np.isnan(part[-1]) else part[mid - 1 + odd:mid + 1].mean())


def read_records(path) -> List[TrialRecord]:
    """Load TrialRecords back from a JSON-lines file."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(TrialRecord.from_json(line))
    return records


_SUMMARY_FIELDS = ("evm", "ser", "ber", "rate", "normalized_objective")


# The Cornish-Fisher terms g_1 .. g_5 of the Student-t quantile in powers of
# 1/df (Abramowitz & Stegun 26.7.5): coefficients of z, z^3, z^5, ... and
# the divisor of each.
_T_QUANTILE_TERMS = (
    ((1, 1), 4),
    ((3, 16, 5), 96),
    ((-15, 17, 19, 3), 384),
    ((-945, -1920, 1482, 776, 79), 92160),
    ((17955, -765, -1782, 930, 339, 27), 368640),
)


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer ``df``, from the finite series of A&S 26.7.3-4."""
    theta = math.atan(t / math.sqrt(df))
    c2, odd = math.cos(theta) ** 2, df % 2
    terms, term = [], 1.0
    for k in range((df - odd) // 2):
        if k:
            term *= c2 * (2 * k - 1 + odd) / (2 * k + odd)
        terms.append(term)
    s = math.sin(theta) * math.fsum(terms)
    return 2 / math.pi * (theta + math.cos(theta) * s) if odd else s


@functools.lru_cache(maxsize=256)
def _t975(df: int) -> float:
    """The Student-t 0.975 quantile for integer ``df`` >= 1, within 1e-13 of SciPy's ``stdtrit``.

    The Cornish-Fisher expansion around the normal quantile, to 1/df^5, is
    exact to rounding from df = 200 on; below, Newton's method from it
    solves P(|T| <= t) = 0.95 on the series.  P(|T| <= t) is concave for
    t > 0, so Newton's iterates rise monotonically from below.
    """
    z = 1.959963984540054  # the standard normal 0.975 quantile
    t = z + math.fsum(z * sum(c * z ** (2 * i) for i, c in enumerate(cs)) / (d * df ** (j + 1))
                      for j, (cs, d) in enumerate(_T_QUANTILE_TERMS))
    if df < 200:
        log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
        for _ in range(50):
            density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
            step = (0.95 - _t_central(t, df)) / (2 * density)
            t += step
            if abs(step) <= 1e-14 * t:
                break
    return t


def _ci95_halfwidth(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 0.0
    return float(_t975(n - 1) * values.std(ddof=1) / math.sqrt(n))


def _write_dat(path, header: str, rows: Iterable[Sequence[float]]) -> None:
    """Write a whitespace-delimited plot file: ints as written, every other value as repr(float)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {header}\n")
        for row in rows:
            fh.write(" ".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) + "\n")


def emit_report(records: Iterable[TrialRecord], out_dir) -> List[str]:
    """Persist records and their aggregates; returns the written paths.

    Writes ``trials.jsonl`` (one record per line), ``summary.csv`` (mean,
    median, and 95% t-interval half-width per sweep point and method; a
    column is empty where no record sets it, as is every statistic of an
    all-error sweep point), and per method a ``plot_evm_<method>.dat`` of
    the EVM mean and interval at each sweep point with a successful trial.
    """
    records = list(records)
    os.makedirs(out_dir, exist_ok=True)
    written = []

    jsonl_path = os.path.join(out_dir, "trials.jsonl")
    with open(jsonl_path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")
    written.append(jsonl_path)

    groups: Dict[Tuple[str, str, float], List[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.sweep_param, rec.sweep_value), []).append(rec)

    header = ["method", "sweep_param", "sweep_value", "n", "n_errors"]
    for f in _SUMMARY_FIELDS:
        header += [f"{f}_mean", f"{f}_median", f"{f}_ci95"]
    header += ["iters_mean"]

    summary_path = os.path.join(out_dir, "summary.csv")
    rows_by_method: Dict[str, List[Tuple[float, float, float]]] = {}
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for (method, param, value), recs in sorted(groups.items()):
            done = [r.metrics for r in recs if r.error is None and r.metrics is not None]
            n_errors = sum(r.error is not None for r in recs)
            row: List[object] = [method, param, repr(value), len(done), n_errors]
            stats = {}
            for f in _SUMMARY_FIELDS:
                vals = np.array(
                    [getattr(m, f) for m in done if getattr(m, f) is not None],
                    dtype=np.float64,
                )
                if vals.size:
                    stats[f] = (float(vals.mean()), _median(vals), _ci95_halfwidth(vals))
                row += [repr(v) for v in stats[f]] if f in stats else ["", "", ""]
            iters = np.array([m.iters for m in done], dtype=np.float64)
            row.append(repr(float(iters.mean())) if done else "")
            writer.writerow(row)
            if done:
                evm_mean, _, evm_ci = stats["evm"]
                rows_by_method.setdefault(method, []).append((value, evm_mean, evm_ci))
    written.append(summary_path)

    for method, rows in sorted(rows_by_method.items()):
        path = os.path.join(out_dir, f"plot_evm_{method}.dat")
        _write_dat(path, "sweep_value mean_evm ci95_halfwidth", sorted(rows))
        written.append(path)
    return written


def emit_convergence(results: Dict[str, dict], out_dir) -> List[str]:
    """Write each variant's ``plot_convergence_<name>.dat``, then ``convergence_summary.json``.

    Returns the written paths.  The summary is strict JSON: a level never reached is written as null.
    """
    os.makedirs(out_dir, exist_ok=True)
    written, summary = [], {}
    for name, res in results.items():
        written.append(os.path.join(out_dir, f"plot_convergence_{name}.dat"))
        _write_dat(written[-1], "iteration mean_normalized_objective", enumerate(res["mean_curve"]))
        summary[name] = {key: res[key] for key in ("upper_bound", "sigma_z2", "level", "trials")}
        median = res["median_iters_to_level"]
        summary[name]["median_iters_to_level"] = median if math.isfinite(median) else None
    written.append(os.path.join(out_dir, "convergence_summary.json"))
    with open(written[-1], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    return written


def emit_concentration(rows: Sequence[dict], out_dir) -> List[str]:
    """Write one ``plot_concentration_k<K>.dat`` per K of ``rows``, in order; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    columns = ("t_len", "empirical", "theoretical", "crossover_t")
    for k in dict.fromkeys(row["k_users"] for row in rows):
        written.append(os.path.join(out_dir, f"plot_concentration_k{k}.dat"))
        _write_dat(written[-1], " ".join(columns),
                   [[row[c] for c in columns] for row in rows if row["k_users"] == k])
    return written
