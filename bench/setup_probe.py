"""One set-up measurement in a fresh interpreter; ``run.py`` starts it.

Times ``import blindmimo``, config validation and one warm-up trial (a
``run_sweep`` of one trial at the first sweep value, then ``emit_report``)
on a seed that no timed batch uses, and prints the seconds taken.

Usage: python3 bench/setup_probe.py <workload> <seed> <scratch dir>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import METHODS, WORKLOADS, config_dict, derive_seed  # noqa: E402


def main(name: str, seed: int, out_dir: str) -> float:
    param, values = WORKLOADS[name]["sweep"]
    t0 = time.perf_counter()
    import blindmimo

    cfg = blindmimo.SystemConfig.from_dict(config_dict(name, 1, derive_seed(seed, "warmup")))
    records = blindmimo.run_sweep(cfg, param, values[:1], METHODS)
    blindmimo.emit_report(records, out_dir)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
