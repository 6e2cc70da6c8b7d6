"""The benchmark's workloads, as plain data.

Each workload is a ``SystemConfig`` dictionary (the format ``blindmimo
simulate`` reads) and a one-parameter sweep, run with the l3 detector.
Nothing here imports ``blindmimo``, so the set-up probe can time that import.

A run executes the workload as a window of ``window_batches`` batches: each
batch is one ``run_sweep`` over ``trials_per_batch`` trials followed by one
``emit_report``, with its own base seed derived from the run's ``--seed``.
The window is fixed, so the exact quantities (iteration means, EVM means)
do not depend on how fast the machine is.  The traced run covers the first
``trace_batches`` of them, and the digest of their ``trials.jsonl`` files is
recorded with every result.  Why each workload was chosen is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib

METHODS = ("l3",)

WORKLOADS = {
    "l3_clustered": {
        "config": {},
        "sweep": ("snr_db", [20.0]),
        "trials_per_batch": 25,
        "window_batches": 32,
        "trace_batches": 12,
        "evm_range": (0.02, 0.3),
        # The same config with l4, rgd and pilot is the paper's baseline
        # comparison; the trace runs it on this many trials.
        "baseline_trials": 4,
    },
    "short_frame": {
        "config": {
            "k_users": 8,
            "t_len": 40,
            "n_h": 256,
            "theta": 0.1,
            "channel_model": "bernoulli_gaussian",
            "fading_model": "log_distance",
            "solver": {"precondition": True},
        },
        "sweep": ("snr_db", [10.0, 20.0, 30.0]),
        "trials_per_batch": 10,
        "window_batches": 96,
        "trace_batches": 32,
        "evm_range": (0.05, 0.6),
        # On this config rgd raises "direction not tangent" and pilot finds
        # its zero-forcing matrix rank deficient on every trial, so the
        # baselines are not run here.
        "baseline_trials": 0,
    },
}


def derive_seed(seed: int, purpose: str, index: int = 0) -> int:
    """A 32-bit base seed for one batch, derived from the run's seed.

    Different purposes ("warmup", "batch", "kernel") never share a stream,
    so the warm-up trial is never one of the timed trials.
    """
    digest = hashlib.sha256(f"{seed}:{purpose}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config_dict(name: str, trials: int, base_seed: int) -> dict:
    """The ``SystemConfig.from_dict`` input for one batch of a workload."""
    return {**WORKLOADS[name]["config"], "trials": trials, "base_seed": base_seed}
