"""blindmimo benchmark: Monte Carlo trial throughput, detect latency and a per-layer trace.

Usage (from the root of a checkout):

    python3 bench/run.py --workload l3_clustered --seed 1 --seconds 20 --trace 0

Each workload runs in this one process the way ``blindmimo simulate`` does:
``run_sweep`` with the workload's ``SystemConfig``, then ``emit_report`` into
a scratch directory under ``.bench_tmp/``, in batches run until
``--seconds`` have passed.  Every batch's outputs are read back and checked.

``--trace 0`` prints the end-to-end metrics, measured untraced.  Its timings
are given in units of a fixed reference loop that runs between trials (see
``Reference``); the same timings in milliseconds are printed as ``info``
lines beside them.  ``--trace 1``
runs the workload's first batches once untraced and once with every public
function of the six blindmimo modules wrapped in a span tracer, traces the
baselines, then times the kernels that ``solve`` inlines; it prints the
per-layer metrics.
Every metric is printed by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is nonzero when a check fails or the sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Fixed before numpy loads.  One thread never exceeds nproc, and on a 2-core
# x86 host single-threaded OpenBLAS was 5-25 % faster than two threads at
# these matrix sizes and varied less between runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import kernels  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import METHODS, WORKLOADS, config_dict, derive_seed  # noqa: E402

SETUP_REPEATS = 5
# Sizes of the reference loop's two parts; together about 3-6 ms on a
# 2-vCPU x86 host, depending on the workload's shapes.
REF_PY_LOOP = 20000
REF_NP_ITERS = 5
BASELINES = ("l4", "rgd", "pilot")
BASELINE_TRIALS = 4


@dataclass
class Batch:
    records: list
    trial_ms: List[float]
    # Reference-loop times in ms, one before the first trial and one after
    # each trial; empty when the batch ran without them.
    ref_ms: List[float]
    # Wall time of the batch, reference loops excluded.
    seconds: float
    digest: str
    problems: List[str]


@dataclass
class Report:
    metrics: Dict[str, tuple] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    extra_records: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def load_package():
    if not os.path.isfile(os.path.join(SRC, "blindmimo", "__init__.py")):
        sys.exit("bench: src/blindmimo not found; run from the root of a repository checkout")
    sys.path.insert(0, SRC)
    import blindmimo

    return blindmimo


class Reference:
    """A fixed loop that touches no blindmimo code; calling it returns its milliseconds.

    The benchmark runs on a few vCPUs of a shared host whose speed drifts by
    up to 2x, in spells of one to many seconds.  The loop slows with the host,
    so a trial's time divided by the loop times beside it stays steady while
    the milliseconds do not.  The loop has a pure-Python part and a numpy
    part: l3-style iterations (two complex GEMMs and a thin SVD) at the
    workload's M x T x K on fixed arrays.  Over consecutive 40 s windows of
    trials on a 2-vCPU host, the window medians of trial time over loop time
    ranged 3.5x more narrowly than those of the raw trial time, on both
    workloads.  Either part alone did better on one workload and worse on
    the other.
    """

    def __init__(self, m: int, t: int, k: int) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.y = rng.standard_normal((m, t)) + 1j * rng.standard_normal((m, t))
        self.w0 = np.linalg.qr(rng.standard_normal((t, k)) + 0j)[0]
        self.svd = np.linalg.svd

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_PY_LOOP):
            acc += i * i % 7
        w = self.w0
        for _ in range(REF_NP_ITERS):
            z = self.y @ w
            u, _, vh = self.svd(self.y.conj().T @ (z * (z * z.conj()).real), full_matrices=False)
            w = u @ vh
        return (time.perf_counter() - t0) * 1e3


def _trials(records, last_method, sink, trial_ms, reference, ref_ms, tracer):
    """Pass records through, timing each trial between record boundaries.

    A trial ends with its last method's record.  Given a ``reference``, its
    loop runs before the first trial and after each trial, outside the
    trial's time, and its times go to ``ref_ms``.  Under tracing each trial
    is also a ``run.trial`` span, whose self time is what no wrapper
    accounts for.
    """
    if reference is not None:
        ref_ms.append(reference())
    start = time.perf_counter()
    if tracer is not None:
        tracer.push("run.trial")
    for rec in records:
        sink.append(rec)
        if rec.method == last_method:
            if tracer is not None:
                tracer.pop()
            trial_ms.append((time.perf_counter() - start) * 1e3)
            if reference is not None:
                ref_ms.append(reference())
            start = time.perf_counter()
        yield rec
        if rec.method == last_method and tracer is not None:
            tracer.push("run.trial")
    if tracer is not None:
        tracer.drop()


def _check_outputs(bm, out_dir: str, records: list) -> tuple:
    problems = []
    jsonl = os.path.join(out_dir, "trials.jsonl")
    with open(jsonl, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    back = bm.read_records(jsonl)
    if [r.to_json() for r in back] != [r.to_json() for r in records]:
        problems.append(f"{jsonl}: records read back differ from the records written")
    summary = os.path.join(out_dir, "summary.csv")
    groups = {(r.method, r.sweep_value) for r in records if r.error is None}
    if not os.path.isfile(summary):
        problems.append("summary.csv missing")
    else:
        with open(summary, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != len(groups):
            problems.append(f"summary.csv has {rows} rows, expected {len(groups)}")
    return digest, problems


def run_batch(
    bm, name: str, base_seed: int, scratch: str, tracer=None, warmup=False, reference=None
) -> Batch:
    """One ``run_sweep`` plus ``emit_report``; a warm-up is one trial at the first sweep value.

    Given a ``Reference``, its loop runs around every trial.
    """
    w = WORKLOADS[name]
    param, values = w["sweep"]
    trials = 1 if warmup else w["trials_per_batch"]
    cfg = bm.SystemConfig.from_dict(config_dict(name, trials, base_seed))
    if warmup:
        values = values[:1]
    out_dir = os.path.join(scratch, f"batch-{base_seed}")
    records: list = []
    trial_ms: List[float] = []
    ref_ms: List[float] = []
    t0 = time.perf_counter()
    stream = bm.run_sweep(cfg, param, values, METHODS)
    bm.harness.emit_report(
        _trials(stream, METHODS[-1], records, trial_ms, reference, ref_ms, tracer), out_dir
    )
    seconds = time.perf_counter() - t0 - 1e-3 * sum(ref_ms)
    digest, problems = _check_outputs(bm, out_dir, records)
    shutil.rmtree(out_dir)
    return Batch(records, trial_ms, ref_ms, seconds, digest, problems)


def window_digest(batches: List[Batch]) -> str:
    return hashlib.sha256("".join(b.digest for b in batches).encode()).hexdigest()


def _records(batches: List[Batch]) -> list:
    return [r for b in batches for r in b.records]


def _method_values(records: list, method: str, attr: str) -> List[float]:
    return [getattr(r.metrics, attr) for r in records if r.method == method and r.metrics is not None]


def _p90(values: List[float]) -> float:
    # A p90 needs ten samples beyond it; every window holds far more.
    if len(values) < 100:
        raise ValueError(f"a p90 needs at least 100 samples, got {len(values)}")
    return statistics.quantiles(values, n=10)[-1]


def throughput(batches: List[Batch]) -> float:
    return sum(len(b.trial_ms) for b in batches) / sum(b.seconds for b in batches)


def _beside(batch: Batch) -> List[float]:
    """For each trial, the mean of the reference times just before and after it."""
    return [0.5 * (a + b) for a, b in zip(batch.ref_ms[:-1], batch.ref_ms[1:])]


def _in_refs(batches: List[Batch], times_ms) -> List[float]:
    """Per-trial times (one list per batch, in ms) in units of the reference loop beside each trial."""
    return [t / r for b, ts in zip(batches, times_ms) for t, r in zip(ts, _beside(b))]


def _l3_detect_ms(batch: Batch) -> List[float]:
    """The l3 detect time of each trial of the batch, in ms; each trial has one l3 record."""
    return [1e3 * v for v in _method_values(batch.records, "l3", "wall_time")]


def measure_setup(name: str, seed: int, scratch: str) -> List[float]:
    """Set-up seconds from ``SETUP_REPEATS`` fresh interpreters, run one after another."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for i in range(SETUP_REPEATS):
        out_dir = os.path.join(scratch, f"setup{i}")
        done = subprocess.run(
            [sys.executable, probe, name, str(seed), out_dir],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(out_dir)
    return samples


def end_to_end(bm, name: str, seed: int, seconds: float, scratch: str, report: Report) -> List[Batch]:
    """Run fresh batches until ``seconds`` pass, and at least the window.

    The timings are reported in reference-loop units (``ref``): a trial's
    time over the mean of the loop times before and after it, and the
    throughput as trials per thousand loop times, where each batch's time is
    divided by its mean loop time.
    """
    w = WORKLOADS[name]
    setup = measure_setup(name, seed, scratch)
    cfg = bm.SystemConfig.from_dict(config_dict(name, 1, 0))
    reference = Reference(cfg.m, cfg.t_len, cfg.k_users)
    reference()
    run_batch(bm, name, derive_seed(seed, "warmup"), scratch, warmup=True)
    batches: List[Batch] = []
    t_start = time.perf_counter()
    while len(batches) < w["window_batches"] or time.perf_counter() - t_start < seconds:
        batch_seed = derive_seed(seed, "batch", len(batches))
        batches.append(run_batch(bm, name, batch_seed, scratch, reference=reference))
    window = batches[: w["window_batches"]]

    trial_ms = [t for b in batches for t in b.trial_ms]
    ref_ms = [r for b in batches for r in b.ref_ms]
    detect_ms = [_l3_detect_ms(b) for b in batches]
    if any(len(d) != len(b.trial_ms) for d, b in zip(detect_ms, batches)):
        report.problems.append("a batch has not exactly one l3 record per trial")
    trial_ref = _in_refs(batches, [b.trial_ms for b in batches])
    detect_ref = _in_refs(batches, detect_ms)
    cost_refs = sum(1e3 * b.seconds / statistics.fmean(b.ref_ms) for b in batches)
    report.add("trials_per_kref", 1e3 * sum(len(b.trial_ms) for b in batches) / cost_refs, "trials/kref")
    report.add("trial_ref_p50", statistics.median(trial_ref), "ref")
    report.add("trial_ref_p90", _p90(trial_ref), "ref")
    report.add("detect_ref_p50.l3", statistics.median(detect_ref), "ref")
    report.add("detect_ref_p90.l3", _p90(detect_ref), "ref")
    report.add("iters_mean.l3", statistics.fmean(_method_values(_records(window), "l3", "iters")), "iters")
    report.add("evm_mean.l3", statistics.fmean(_method_values(_records(window), "l3", "evm")), "ratio")
    report.add("setup_s", statistics.median(setup), "s")
    report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    flat_detect_ms = [d for ds in detect_ms for d in ds]
    print(f"info samples: trials={len(trial_ms)} l3_detects={len(flat_detect_ms)} batches={len(batches)}")
    q1, ref_p50, q3 = statistics.quantiles(ref_ms, n=4)
    print(f"info reference loop ms: median={ref_p50!r} q1={q1!r} q3={q3!r} samples={len(ref_ms)}")
    print(f"info trials_per_s = {throughput(batches)!r} trials/s")
    print(f"info trial_ms_p50 = {statistics.median(trial_ms)!r} ms, trial_ms_p90 = {_p90(trial_ms)!r} ms")
    print(
        f"info detect_ms_p50.l3 = {statistics.median(flat_detect_ms)!r} ms, "
        f"detect_ms_p90.l3 = {_p90(flat_detect_ms)!r} ms"
    )
    print(f"info setup_s samples = {setup!r}")
    return batches


def selftest() -> None:
    """Run the tracer's self-tests; a failure raises before anything is traced."""
    import test_tracer

    for attr in sorted(dir(test_tracer)):
        if attr.startswith("test_"):
            getattr(test_tracer, attr)()


def _observer(sink: list):
    return lambda result: sink.append(result[1])


def _getter(by_name: Dict[str, dict]):
    return lambda span, key: by_name.get(span, {}).get(key, 0.0)


def traced(bm, name: str, seed: int, scratch: str, report: Report) -> List[Batch]:
    selftest()
    seeds = [derive_seed(seed, "batch", i) for i in range(WORKLOADS[name]["trace_batches"])]
    run_batch(bm, name, derive_seed(seed, "warmup"), scratch, warmup=True)
    plain = [run_batch(bm, name, s, scratch) for s in seeds]

    tracer = tr.Tracer()
    solve_traces: list = []
    with tr.patched(tracer, bm, {"detector.solve": _observer(solve_traces)}):
        spans_batches = [run_batch(bm, name, s, scratch, tracer) for s in seeds]
    if window_digest(spans_batches) != window_digest(plain):
        report.problems.append("traced and untraced runs wrote different trials.jsonl")

    n = sum(len(b.trial_ms) for b in spans_batches)
    by_name, by_layer = tr.aggregate(tracer.spans)
    get = _getter(by_name)

    for layer in tr.LAYERS:
        row = by_layer.get(layer, {"calls": 0, "total": 0.0, "self": 0.0})
        report.add(f"layer.{layer}.calls", row["calls"] / n, "calls/trial")
        report.add(f"layer.{layer}.ms", 1e3 * row["total"] / n, "ms/trial")
        report.add(f"layer.{layer}.self_ms", 1e3 * row["self"] / n, "ms/trial")

    plain_tps, traced_tps = throughput(plain), throughput(spans_batches)
    report.add("trial_overhead_us", 1e6 * get("run.trial", "self") / n, "us/trial")
    report.add("build_scenario_ms", 1e3 * get("harness.build_scenario", "total") / n, "ms/trial")
    report.add("build_scenario_self_ms", 1e3 * get("harness.build_scenario", "self") / n, "ms/trial")
    report.add("emit_report_ms", 1e3 * get("harness.emit_report", "self") / n, "ms/trial")
    report.add("traced_trials_per_s", traced_tps, "trials/s")
    report.add("trace_overhead_pct", 100.0 * (plain_tps / traced_tps - 1.0), "%")

    report.add("steering_matrix_ms", 1e3 * get("channel.steering_matrix", "total") / n, "ms/trial")
    report.add("steering_matrix_calls", get("channel.steering_matrix", "calls") / n, "calls/trial")
    report.add("clustered_channel_ms", 1e3 * get("channel.clustered_channel", "self") / n, "ms/trial")
    report.add("array_response_calls", get("channel.array_response", "calls") / n, "calls/trial")
    report.add(
        "bernoulli_gaussian_channel_us",
        1e6 * get("channel.bernoulli_gaussian_channel", "total") / n,
        "us/trial",
    )
    report.add("build_frame_us", 1e6 * get("signal.build_frame", "total") / n, "us/trial")
    report.add("synthesize_received_us", 1e6 * get("signal.synthesize_received", "total") / n, "us/trial")

    evals = sum(t.n_evals for t in solve_traces)
    restarts = [c - 1 for c in tr.child_counts(tracer.spans, "detector.solve", "manifold.random_stiefel")]
    report.add("solve_us_per_iter", 1e6 * get("detector.solve", "total") / evals, "us/iter")
    report.add("solve_iters", statistics.fmean(t.iters_run for t in solve_traces), "iters/solve")
    report.add("solve_restarts", statistics.fmean(restarts), "restarts/solve")
    report.add("detect_ms", 1e3 * get("detector.detect", "total") / get("detector.detect", "calls"), "ms/call")
    for span, metric in (
        ("detector.precondition", "precondition_us"),
        ("detector.postprocess", "postprocess_us"),
        ("detector.resolve_ambiguity", "resolve_ambiguity_us"),
        ("detector.demodulate", "demodulate_us"),
    ):
        report.add(metric, 1e6 * get(span, "total") / n, "us/trial")

    report.add("trial_metrics_us", 1e6 * by_layer.get("metrics", {"total": 0.0})["total"] / n, "us/trial")

    traced_trial_ms = statistics.fmean(t for b in spans_batches for t in b.trial_ms)
    residual_share = 1e3 * get("run.trial", "self") / n / traced_trial_ms
    print(f"info traced trials={n} spans={len(tracer.spans)} residual share of trial time={residual_share:.4f}")
    for span in sorted(by_name):
        row = by_name[span]
        print(
            f"span {span} calls/trial={row['calls'] / n:.3f} "
            f"total_ms/trial={1e3 * row['total'] / n:.4f} self_ms/trial={1e3 * row['self'] / n:.4f}"
        )
    report.extra_records += baselines(bm, name, seed, report)
    if not tr.unpatched(bm):
        report.problems.append("a tracing wrapper survived the traced run")
    _kernel_metrics(bm, name, seed, report)
    return plain + spans_batches


def baselines(bm, name: str, seed: int, report: Report) -> list:
    """Trace the paper's baselines on a few trials of the workload's config.

    A workload with ``baseline_trials`` also runs l4, rgd and pilot for that
    many trials at its first sweep value.  An rgd trial costs ten l3 trials
    and its cost varies several-fold with the scenario, so too few fit in a
    run for steady end-to-end figures; they are reported here, per layer,
    measured under tracing.  Workloads without them report zeros.
    """
    trials = WORKLOADS[name]["baseline_trials"]
    units = {
        "detect_ms_p50.l4": "ms",
        "detect_ms_p50.rgd": "ms",
        "detect_ms_p50.pilot": "ms",
        "iters_mean.l4": "iters",
        "iters_mean.rgd": "iters",
        "polar_retract_calls": "calls/trial",
        "rgd_ms": "ms/call",
        "rgd_evals": "evals/solve",
        "rgd_retractions_per_step": "retractions/step",
        "rgd_accept_ratio": "steps/retraction",
        "rgd_retract_objective_share": "ratio",
        "pilot_zf_ms": "ms/call",
    }
    if not trials:
        for metric, unit in units.items():
            report.add(metric, 0.0, unit)
        return []

    param, values = WORKLOADS[name]["sweep"]
    cfg = bm.SystemConfig.from_dict(config_dict(name, trials, derive_seed(seed, "baselines")))
    tracer = tr.Tracer()
    rgd_traces: list = []
    with tr.patched(tracer, bm, {"detector.riemannian_gd_baseline": _observer(rgd_traces)}):
        records = list(bm.run_sweep(cfg, param, values[:1], BASELINES))
    by_name, _ = tr.aggregate(tracer.spans)
    get = _getter(by_name)
    rgd_s = get("detector.riemannian_gd_baseline", "total")
    retractions = sum(tr.child_counts(tracer.spans, "detector.riemannian_gd_baseline", "manifold.polar_retract"))
    steps = sum(t.iters_run for t in rgd_traces)
    found = {
        **{
            f"detect_ms_p50.{m}": 1e3 * statistics.median(_method_values(records, m, "wall_time"))
            for m in BASELINES
        },
        **{f"iters_mean.{m}": statistics.fmean(_method_values(records, m, "iters")) for m in ("l4", "rgd")},
        "polar_retract_calls": get("manifold.polar_retract", "calls") / trials,
        "rgd_ms": 1e3 * rgd_s / len(rgd_traces),
        "rgd_evals": statistics.fmean(t.n_evals for t in rgd_traces),
        "rgd_retractions_per_step": retractions / steps,
        "rgd_accept_ratio": steps / retractions,
        "rgd_retract_objective_share": (
            get("manifold.polar_retract", "total") + get("detector.objective", "total")
        ) / rgd_s,
        "pilot_zf_ms": 1e3 * get("detector.pilot_zf_baseline", "total") / get("detector.pilot_zf_baseline", "calls"),
    }
    for metric, unit in units.items():
        report.add(metric, found[metric], unit)
    return records


def _kernel_metrics(bm, name: str, seed: int, report: Report) -> None:
    import numpy as np

    param, values = WORKLOADS[name]["sweep"]
    raw = {**config_dict(name, 1, derive_seed(seed, "kernel")), param: values[0]}
    cfg = bm.SystemConfig.from_dict(raw)
    rng = np.random.default_rng(cfg.base_seed)
    samples, errors = kernels.measure(bm, cfg, bm.build_scenario(cfg, rng), rng)
    for kernel, values in samples.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        report.add(f"kernel.{kernel}_us", statistics.median(values), "us")
        report.add(f"kernel.{kernel}_iqr_us", q3 - q1, "us")
    for kernel, error in errors.items():
        print(f"info kernel {kernel} rejected this workload's inputs, reported as 0: {error}")
        report.add(f"kernel.{kernel}_us", 0.0, "us")
        report.add(f"kernel.{kernel}_iqr_us", 0.0, "us")
    cost = kernels.l3_iteration_cost(cfg.m, cfg.t_len, cfg.k_users)
    report.add("kernel.iter_flops_computed", cost["flops"], "flop")
    report.add("kernel.iter_bytes_computed", cost["bytes"], "B")
    report.add("kernel.iter_gflops", cost["flops"] / (1e3 * statistics.median(samples["iterate"])), "GFLOP/s")


def _blas(np) -> dict:
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported: Optional[int] = None
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs_dir, "*openblas*")):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                reported = fn()
                break
    return {
        "vendor": dep.get("name"),
        "version": dep.get("version"),
        "threads_fixed": BLAS_THREADS,
        "threads_reported": reported,
    }


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(bm, name: str, seed: int, window: List[Batch]) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": _blas(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blindmimo": bm.__version__,
        "git_commit": _git_commit(),
        "trials_jsonl_sha256": window_digest(window),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    bm = load_package()
    w = WORKLOADS[args.workload]
    report = Report()
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        if args.trace:
            batches = traced(bm, args.workload, args.seed, scratch, report)
        else:
            batches = end_to_end(bm, args.workload, args.seed, args.seconds, scratch, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass

    own = _records(batches)
    records = own + report.extra_records
    failed = sum(r.error is not None for r in records)
    report.problems += [p for b in batches for p in b.problems]
    for rec in records:
        if rec.error is not None:
            print(f"info error record: {rec.method} trial {rec.trial} seed {rec.seed}: {rec.error}")
    # Baseline errors are recorded outcomes (six pilots cannot always resolve
    # eight users); the workload's own l3 records must never fail.
    if any(r.error is not None for r in own):
        report.problems.append("a record of the workload's own methods carries an error")
    first = batches[: w["trace_batches"]]
    evm_l3 = _method_values(_records(first), "l3", "evm")
    lo, hi = w["evm_range"]
    if not evm_l3 or not lo <= statistics.fmean(evm_l3) <= hi:
        report.problems.append(f"evm_mean.l3 outside the sanity range [{lo}, {hi}]")

    print("context " + json.dumps(context(bm, args.workload, args.seed, first), sort_keys=True))
    print(f"metric error_rate = {sum(r.error is not None for r in own) / len(own)!r} records/record")
    for name, (value, unit) in report.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not report.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
