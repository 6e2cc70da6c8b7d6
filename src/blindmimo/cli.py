"""Command-line front end for the simulation harness.

Subcommands: ``simulate`` (Monte Carlo sweep), ``convergence`` (normalized
objective traces under parameter variations), ``concentration`` (Gram-matrix
tail frequencies), and ``report`` (re-aggregate a trials.jsonl file).
Exit status is 0 on success and nonzero on any hard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .harness import (
    SystemConfig,
    _write_dat,
    emit_report,
    iterations_to_level,
    read_records,
    run_concentration_experiment,
    run_convergence_experiment,
    run_sweep,
)

_DEFAULT_SWEEP = {"param": "snr_db", "values": [0.0, 10.0, 20.0, 30.0]}


def _str2bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _build_config(raw: dict, args: argparse.Namespace) -> SystemConfig:
    """The config of ``raw`` with the command-line overrides applied, built once."""
    raw = dict(raw)
    for key, arg in (("base_seed", "seed"), ("trials", "trials")):
        if getattr(args, arg, None) is not None:
            raw[key] = getattr(args, arg)
    if getattr(args, "precondition", None) is not None:
        raw["solver"] = {**(raw.get("solver") or {}), "precondition": args.precondition}
    return SystemConfig.from_dict(raw)


def _cmd_simulate(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    sweep = raw.get("sweep", _DEFAULT_SWEEP)
    cfg = _build_config(raw, args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    records = run_sweep(cfg, sweep["param"], sweep["values"], methods)
    written = emit_report(records, args.out)
    for path in written:
        print(path)
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    variant_overrides = raw.pop("variants", None)
    raw.setdefault("trials", 30)
    base = _build_config(raw, args)
    if base.sigma_z2 is not None:
        noise_variant = {"sigma_z2": base.sigma_z2 / 10.0}
    else:
        noise_variant = {"snr_db": base.snr_db + 10.0}
    variant_overrides = variant_overrides or {
        "theta_half": {"theta": base.theta / 2.0},
        "k_half": {"k_users": max(1, base.k_users // 2)},
        "noise_tenth": noise_variant,
    }
    variants = {"base": base}
    for name, over in variant_overrides.items():
        variants[name] = SystemConfig.from_dict({**base.to_dict(), **over})
    results = run_convergence_experiment(variants, trials=base.trials, base_seed=base.base_seed)
    os.makedirs(args.out, exist_ok=True)
    summary = {}
    for name, res in results.items():
        traces = res["traces"]
        max_len = max(len(t) for t in traces)
        mean_curve = np.full(max_len, np.nan)
        for j in range(max_len):
            vals = [t[min(j, len(t) - 1)] for t in traces]
            mean_curve[j] = float(np.mean(vals))
        path = os.path.join(args.out, f"plot_convergence_{name}.dat")
        _write_dat(path, "iteration mean_normalized_objective", enumerate(mean_curve))
        median = float(np.median([iterations_to_level(t, args.level) for t in traces]))
        summary[name] = {
            "upper_bound": res["upper_bound"],
            "sigma_z2": res["sigma_z2"],
            "median_iters_to_level": median if np.isfinite(median) else None,  # never reached
            "level": args.level,
            "trials": base.trials,
        }
        print(path)
    summary_path = os.path.join(args.out, "convergence_summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    print(summary_path)
    return 0


def _cmd_concentration(args: argparse.Namespace) -> int:
    k_list = [int(v) for v in args.k_list.split(",") if v.strip()]
    t_list = [int(v) for v in args.t_list.split(",") if v.strip()]
    rows = run_concentration_experiment(
        k_list,
        t_list,
        args.delta_sq,
        args.trials,
        constellation=args.constellation,
        base_seed=args.seed or 0,
    )
    os.makedirs(args.out, exist_ok=True)
    for k in k_list:
        path = os.path.join(args.out, f"plot_concentration_k{k}.dat")
        _write_dat(
            path,
            "t_len empirical theoretical crossover_t",
            [
                (row["t_len"], row["empirical"], row["theoretical"], row["crossover_t"])
                for row in rows
                if row["k_users"] == k
            ],
        )
        print(path)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_records(args.records)
    written = emit_report(records, args.out)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindmimo",
        description="Blind massive-MIMO detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo sweep over one parameter")
    sim.add_argument("--config", required=True, help="JSON config (SystemConfig fields)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override base_seed")
    sim.add_argument("--trials", type=int, default=None, help="override trials")
    sim.add_argument("--methods", default="l3", help="comma list from l3,l4,rgd,pilot")
    sim.add_argument("--precondition", type=_str2bool, default=None)
    sim.set_defaults(func=_cmd_simulate)

    conv = sub.add_parser("convergence", help="normalized objective traces per variant")
    conv.add_argument("--config", required=True)
    conv.add_argument("--out", required=True)
    conv.add_argument("--seed", type=int, default=None)
    conv.add_argument("--trials", type=int, default=None, help="else the config's trials, else 30")
    conv.add_argument("--level", type=float, default=0.9)
    conv.set_defaults(func=_cmd_convergence)

    conc = sub.add_parser("concentration", help="Gram-concentration tail frequencies")
    conc.add_argument("--k-list", default="4,8")
    conc.add_argument("--t-list", default="30,36,44,54,64,80,100,125")
    conc.add_argument("--delta-sq", type=float, default=0.1)
    conc.add_argument("--trials", type=int, default=1000)
    conc.add_argument("--constellation", default="qpsk")
    conc.add_argument("--seed", type=int, default=None)
    conc.add_argument("--out", required=True)
    conc.set_defaults(func=_cmd_concentration)

    rep = sub.add_parser("report", help="re-aggregate a trials.jsonl file")
    rep.add_argument("--records", required=True, help="path to trials.jsonl")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # hard errors surface as nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
