"""Seeded Monte Carlo experiment orchestration and result persistence.

Every trial's random stream is derived from (base_seed, sweep index, trial
index, purpose tag) through a counter-based seed sequence, so runs are fully
reproducible, order-independent, and paired across methods: all methods at a
given (sweep value, trial) see the same channel, frame, and noise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import os
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import stats

from . import detector, metrics
from .channel import ArrayGeometry, PathSet, bernoulli_gaussian_channel, clustered_channel
from .detector import SolverOptions
from .manifold import RankDeficientError, random_stiefel
from .metrics import TrialMetrics, theoretical_objective_bound
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
    "TrialRecord",
    "Scenario",
    "DEFAULT_CONCENTRATION_C",
    "run_sweep",
    "run_concentration_experiment",
    "run_convergence_experiment",
    "iterations_to_level",
    "emit_report",
    "read_records",
    "concentration_tail_bound",
    "concentration_crossover",
]

# Blind methods: the ``detector`` solver that ``detect`` runs, and its exponent.
_BLIND_METHODS = {"l3": ("solve", 3), "l4": ("solve", 4), "rgd": ("riemannian_gd_baseline", 3)}
KNOWN_METHODS = (*_BLIND_METHODS, "pilot")

# Curve constants fitted to the concentration tail for QPSK frames.
DEFAULT_CONCENTRATION_C = {4: 0.416, 8: 0.464}

# Carrier frequency (GHz) for the log-distance fading model.
_FADING_FC_GHZ = 28.0


@dataclass(frozen=True)
class SystemConfig:
    """One simulated scenario: array, frame, channel, noise, and solver knobs.

    ``snr_db`` maps to the per-entry noise variance K / (SNR * T) under
    identity fading and sum(G) / (T * SNR) under log-distance fading; set
    ``sigma_z2`` to bypass the mapping with an explicit variance.  ``theta``
    drives the Bernoulli-Gaussian model and ``n_paths`` the clustered model.

    With fewer pilots than users (``t_pilot < k_users``, as in the defaults)
    the pilot baseline's channel estimate is underdetermined and some trials
    end as rank-deficient error records; such configs are still accepted.
    With enough pilots, the l1 weight ``pilot_lambda`` can still zero a weak
    user's whole channel estimate; that error record names the user.
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
        names = ("k_users", "t_len", "n_h", "n_v", "n_paths", "trials", "base_seed", "t_pilot")
        counts = {**{f: getattr(self, f) for f in names}, "solver.max_iters": self.solver.max_iters}
        for name, v in counts.items():
            try:
                operator.index(v)  # numpy integers pass, 40.0 does not
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {v!r}") from None
        if min(self.k_users, self.t_len, self.n_h, self.n_v) < 1:
            raise ValueError("dimensions must be positive")
        if self.m < self.k_users:
            raise ValueError(
                f"need at least as many antennas as users, got M={self.m} < K={self.k_users}"
            )
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
        if self.sigma_z2 is not None and not 0 <= self.sigma_z2 < math.inf:
            raise ValueError(f"sigma_z2 must be finite and >= 0, got {self.sigma_z2}")
        if not 0 <= self.pilot_lambda < math.inf:
            raise ValueError(f"pilot_lambda must be finite and >= 0, got {self.pilot_lambda}")
        if not self.snr_db > -math.inf:  # NaN fails too; +inf means noiseless
            raise ValueError(f"snr_db must be a number above -inf, got {self.snr_db}")
        self.power_vector()
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 1 <= self.t_pilot < self.t_len:
            raise ValueError("t_pilot must lie in [1, t_len)")
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
        if p.shape != (self.k_users,) or not np.all((p > 0) & (p < np.inf)):
            raise ValueError("power must be finite and positive (scalar or length-K vector)")
        return p

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        d = dict(d)
        d.pop("sweep", None)
        solver = d.pop("solver", None) or {}
        unknown = [k for k in d if k not in cls.__dataclass_fields__]
        unknown += [f"solver.{k}" for k in solver if k not in SolverOptions.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(d.get("power"), list):
            d["power"] = tuple(d["power"])
        return cls(**d, solver=SolverOptions(**solver))

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

    ``channel`` is the M x K angular-domain matrix; the power vector is the
    config's (``SystemConfig.power_vector``).
    """

    channel: np.ndarray
    frame: TransmitFrame
    g_diag: np.ndarray
    sigma_z2: float
    y_bar: np.ndarray

    @property
    def digest(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.y_bar).data).hexdigest()[:12]


def _draw_fading(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.fading_model == "identity":
        return np.ones(cfg.k_users)
    # Log-distance path loss at 28 GHz with complex-normal shadowing; the
    # real part of the shadowing term is used as the dB perturbation.
    d = rng.uniform(20.0, 200.0, cfg.k_users)
    chi = (rng.standard_normal(cfg.k_users) + 1j * rng.standard_normal(cfg.k_users))
    chi_db = np.sqrt(4.2 / 2.0) * chi.real
    g_db = -32.4 - 18.5 * np.log10(d) - 20.0 * np.log10(_FADING_FC_GHZ) + chi_db
    return 10.0 ** (g_db / 10.0)


def _noise_variance(cfg: SystemConfig, g_diag: np.ndarray) -> float:
    if cfg.sigma_z2 is not None:
        return float(cfg.sigma_z2)
    if cfg.fading_model == "identity":
        return snr_to_noise_variance(cfg.snr_db, cfg.k_users, cfg.t_len)
    snr_lin = 10.0 ** (cfg.snr_db / 10.0)
    return float(g_diag.sum()) / (cfg.t_len * snr_lin)


def _draw_channel(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.channel_model == "bernoulli_gaussian":
        return bernoulli_gaussian_channel(cfg.m, cfg.k_users, cfg.theta, rng)
    paths = [PathSet(cfg.n_paths) for _ in range(cfg.k_users)]
    return clustered_channel(paths, cfg.geometry, rng)


def build_scenario(cfg: SystemConfig, rng: np.random.Generator) -> Scenario:
    """Draw fading, channel, frame, and noise for one trial."""
    c = build_constellation(cfg.constellation)
    g = _draw_fading(cfg, rng)
    sigma_z2 = _noise_variance(cfg, g)
    channel = _draw_channel(cfg, rng)
    frame = build_frame(cfg.k_users, cfg.t_len, c, rng)
    y_bar = synthesize_received(channel, frame.x, g, cfg.power_vector(), sigma_z2, rng)
    return Scenario(channel=channel, frame=frame, g_diag=g, sigma_z2=sigma_z2, y_bar=y_bar)


@dataclass(frozen=True)
class TrialRecord:
    """One (method, sweep value, trial) outcome, flat enough to serialize.

    ``restarts`` is the solver's restart count (0 for pilot and for errors);
    it defaults to 0 so records written before it existed still load, as do
    records with a top-level ``iters`` and metrics ``rate_blind``/``rate_training``.
    An error record's NaN ``final_eta`` is written as null (strict JSON) and loads back as NaN.
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
        d = asdict(self)
        if d["metrics"] is not None:
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


def _envelope_holds(cfg: SystemConfig) -> bool:
    """Whether the l3 envelope holds: Bernoulli-Gaussian, unit G and P, no preconditioning."""
    return (cfg.channel_model == "bernoulli_gaussian" and cfg.fading_model == "identity"
            and not cfg.solver.precondition and bool(np.all(cfg.power_vector() == 1.0)))


def _run_method(
    cfg: SystemConfig, scenario: Scenario, method: str, rng: np.random.Generator
) -> dict:
    """Run one method on a scenario; returns the record fields its outcome determines."""
    c = build_constellation(cfg.constellation)
    frame = scenario.frame
    if method == "pilot":
        # Training phase: random unit-power pilot symbols with their own
        # noise.  The 1/sqrt(T) frame scaling is a data-concentration device
        # and does not apply to pilots; unit symbol power keeps the l1 weight
        # on a sane scale.
        idx = rng.integers(0, c.size, size=(cfg.k_users, cfg.t_pilot))
        x_pilot = c.points[idx] * np.sqrt(cfg.power_vector())[:, np.newaxis]
        y_train = synthesize_received(
            scenario.channel, x_pilot, scenario.g_diag, np.ones(cfg.k_users), scenario.sigma_z2, rng
        )
        t0 = time.perf_counter()
        x_hat = detector.pilot_zf_baseline(
            y_train, x_pilot, scenario.y_bar, scenario.g_diag, cfg.pilot_lambda
        )
        elapsed = time.perf_counter() - t0
        indices, bits = detector.demodulate(x_hat, c)
        fields = dict(stop_reason="obj_tol", final_eta=0.0, restarts=0)
        own = dict(rate=metrics.achievable_rate_training(x_hat, frame.x, cfg.t_len, cfg.t_pilot),
                   normalized_objective=None, iters=0)
    else:
        name, p = _BLIND_METHODS[method]
        t0 = time.perf_counter()
        result = detector.detect(
            scenario.y_bar, scenario.g_diag, frame.meta, c, cfg.solver, rng,
            solver=getattr(detector, name), p_exponent=p,
        )
        elapsed = time.perf_counter() - t0
        x_hat, indices, bits, trace = result.x_hat, result.symbol_indices, result.bits, result.trace
        fields = dict(stop_reason=trace.stop_reason, final_eta=trace.final_eta,
                      restarts=trace.restarts)
        own = dict(rate=metrics.achievable_rate_blind(x_hat, frame.x, cfg.t_len),
                   normalized_objective=None, iters=trace.iters_run)
        if p == 3 and _envelope_holds(cfg):  # l4's fourth-power objective has no envelope
            inv_snr = scenario.sigma_z2 / scenario.g_diag
            _, upper = theoretical_objective_bound(cfg.m, cfg.k_users, cfg.theta, inv_snr)
            own["normalized_objective"] = trace.final_objective / upper
    start = frame.payload_start
    tm = TrialMetrics(
        evm=metrics.evm(x_hat, frame.x),
        ser=metrics.symbol_error_rate(indices[:, start:], frame.symbol_indices[:, start:]),
        ber=metrics.bit_error_rate(bits[:, start:], frame.payload_bits),
        wall_time=elapsed,
        **own,
    )
    return dict(metrics=tm, **fields)


def run_sweep(
    cfg: SystemConfig,
    sweep_param: str,
    sweep_values: Sequence[float],
    methods: Sequence[str] = ("l3",),
) -> Iterator[TrialRecord]:
    """Monte Carlo sweep over one config parameter, one record per (method, value, trial).

    Per-trial solver failures (DegenerateGradientError, RankDeficientError)
    are captured in the record (``error`` set, ``stop_reason == "error"``)
    rather than raised; any other exception propagates.  The stream is
    deterministic given the config and base seed.  Each method sets its own
    objective exponent; ``normalized_objective`` is set only for l3 and rgd
    where the l3 envelope holds (see ``_envelope_holds``), else None.
    """
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {KNOWN_METHODS}")
    if sweep_param not in SystemConfig.__dataclass_fields__:
        raise ValueError(f"unknown sweep parameter {sweep_param!r}")
    fingerprint = cfg.fingerprint()
    for si, value in enumerate(sweep_values):
        cfg_i = replace(cfg, **{sweep_param: value})
        for trial in range(cfg_i.trials):
            scenario = build_scenario(cfg_i, _stream(cfg.base_seed, si, trial, "scenario"))
            digest = scenario.digest
            for method in methods:
                seq = _seed_sequence(cfg.base_seed, si, trial, method)
                try:
                    outcome = _run_method(cfg_i, scenario, method, np.random.default_rng(seq))
                except (detector.DegenerateGradientError, RankDeficientError) as exc:
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


def _concentration_delta(threshold: float, s_infinity: float) -> float:
    """The delta whose level (1/ln 2) * S_inf^2 * max(delta, delta^2) equals ``threshold``."""
    tau = threshold * np.log(2.0) / s_infinity**2
    return tau if tau <= 1.0 else np.sqrt(tau)


def concentration_tail_bound(
    t_len: int, k_users: int, threshold: float, c_const: float, s_infinity: float = 1.0
) -> float:
    """Tail bound on Pr[||XX^H - I||_F / sqrt(K) > threshold].

    The exponential concentration statement bounds the tail at level
    (1/ln 2) * S_inf^2 * max(delta, delta^2); inverting that level for the
    requested threshold gives the delta that enters the exponent
    2 exp(-(delta sqrt(T) / C - sqrt(K))^2).
    """
    delta = _concentration_delta(threshold, s_infinity)
    return float(2.0 * np.exp(-((delta * np.sqrt(t_len) / c_const - np.sqrt(k_users)) ** 2)))


def concentration_crossover(
    k_users: int, threshold: float, c_const: float, s_infinity: float = 1.0
) -> float:
    """Smallest T at which the tail bound drops below 1 (becomes informative)."""
    delta = _concentration_delta(threshold, s_infinity)
    return float((c_const * (np.sqrt(k_users) + np.sqrt(np.log(2.0))) / delta) ** 2)


def run_concentration_experiment(
    k_list: Sequence[int],
    t_list: Sequence[int],
    delta_sq: float,
    trials: int,
    constellation: str = "qpsk",
    base_seed: int = 0,
) -> List[dict]:
    """Empirical vs. theoretical Gram-concentration tail over i.i.d. frames.

    Counts the frequency of ||XX^H - I||_F / sqrt(K) exceeding sqrt(delta_sq)
    for i.i.d. constellation matrices normalized by 1/sqrt(T), next to the
    exponential tail bound with the fitted curve constant C of
    ``DEFAULT_CONCENTRATION_C`` (K = 4 and K = 8).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials per point")
    c = build_constellation(constellation)
    threshold = math.sqrt(delta_sq)
    rows = []
    for k in k_list:
        if k not in DEFAULT_CONCENTRATION_C:
            raise ValueError(f"no curve constant for K={k}")
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
                    "theoretical": concentration_tail_bound(t, k, threshold, c_const, c.s_infinity),
                    "crossover_t": concentration_crossover(k, threshold, c_const, c.s_infinity),
                    "c_const": c_const,
                }
            )
    return rows


def run_convergence_experiment(
    variants: Dict[str, SystemConfig],
    trials: int = 30,
    base_seed: int = 0,
) -> Dict[str, dict]:
    """Normalized per-iteration objective traces for each config variant.

    Data is drawn with an exactly orthonormal frame (X^H on the Stiefel
    manifold), a Bernoulli-Gaussian channel and unit fading and power, so
    the expected-objective upper envelope is the correct normalizer; traces
    are objective divided by that envelope.  A config where the envelope
    does not hold (``_envelope_holds``) is rejected.  Trials share one
    derived stream per trial index across variants, so equal-shape variants see identical
    draws (and a smaller theta sees a nested channel support): comparisons
    are paired.
    """
    out: Dict[str, dict] = {}
    for name, cfg in variants.items():
        if not _envelope_holds(cfg):
            raise ValueError(
                "convergence experiment normalizes by the l3 envelope: channel_model must be "
                "bernoulli_gaussian, and solver.precondition, fading_model and power must keep "
                "their defaults"
            )
        ones = np.ones(cfg.k_users)
        sigma = _noise_variance(cfg, ones)
        _, upper = theoretical_objective_bound(
            cfg.m, cfg.k_users, cfg.theta, np.full(cfg.k_users, sigma)
        )
        traces = []
        for trial in range(trials):
            rng = _stream(base_seed, "convergence", trial)
            x = random_stiefel(cfg.t_len, cfg.k_users, rng).a.conj().T
            channel = bernoulli_gaussian_channel(cfg.m, cfg.k_users, cfg.theta, rng)
            y_bar = synthesize_received(channel, x, ones, ones, sigma, rng)
            _, trace = detector.solve(y_bar, ones, cfg.solver, rng)
            traces.append(trace.objective_per_iter / upper)
        out[name] = {"upper_bound": upper, "traces": traces, "sigma_z2": sigma}
    return out


def iterations_to_level(trace: np.ndarray, level: float) -> float:
    """First iteration index at which a trace reaches ``level``; inf if it never does."""
    above = np.flatnonzero(np.asarray(trace) >= level)
    return float(above[0]) if above.size else float("inf")


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


def _ci95_halfwidth(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 0.0
    return float(stats.t.ppf(0.975, n - 1) * values.std(ddof=1) / math.sqrt(n))


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
    column is empty where no record sets it), and one whitespace-delimited
    ``plot_evm_<method>.dat`` file per method with the EVM mean and interval.
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
            if not done:
                continue  # a sweep point with no successful trial writes no row
            n_errors = sum(r.error is not None for r in recs)
            row: List[object] = [method, param, repr(value), len(done), n_errors]
            stats = {}
            for f in _SUMMARY_FIELDS:
                vals = np.array(
                    [getattr(m, f) for m in done if getattr(m, f) is not None],
                    dtype=np.float64,
                )
                if vals.size:
                    stats[f] = (float(vals.mean()), float(np.median(vals)), _ci95_halfwidth(vals))
                row += [repr(v) for v in stats[f]] if f in stats else ["", "", ""]
            iters = np.array([m.iters for m in done], dtype=np.float64)
            row.append(repr(float(iters.mean())))
            writer.writerow(row)
            evm_mean, _, evm_ci = stats["evm"]
            rows_by_method.setdefault(method, []).append((value, evm_mean, evm_ci))
    written.append(summary_path)

    for method, rows in sorted(rows_by_method.items()):
        path = os.path.join(out_dir, f"plot_evm_{method}.dat")
        _write_dat(path, "sweep_value mean_evm ci95_halfwidth", sorted(rows))
        written.append(path)
    return written
