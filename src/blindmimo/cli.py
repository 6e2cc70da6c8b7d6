"""Command-line front end for the simulation harness.

Subcommands: ``simulate`` (Monte Carlo sweep), ``convergence`` (normalized
objective traces under parameter variations), ``concentration`` (Gram-matrix
tail frequencies), and ``report`` (re-aggregate a trials.jsonl file).
A ``simulate`` or ``convergence`` run takes every setting (seed, trials,
solver options) from its JSON config; only ``--methods`` and ``--level``
choose what the run reports.  Each subcommand prints the paths the harness
wrote, one per line, in write order.  Exit status is 0 on success and
nonzero on any hard error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from .harness import (
    SystemConfig,
    convergence_variants,
    emit_concentration,
    emit_convergence,
    emit_report,
    read_records,
    run_concentration_experiment,
    run_convergence_experiment,
    run_sweep,
)

_DEFAULT_SWEEP = {"param": "snr_db", "values": [0.0, 10.0, 20.0, 30.0]}


def _load_config(path: str) -> dict:
    raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got a {type(raw).__name__}")
    return raw


def _cmd_simulate(args: argparse.Namespace) -> List[str]:
    raw = _load_config(args.config)
    sweep = raw.pop("sweep", _DEFAULT_SWEEP)
    if not (isinstance(sweep, dict) and set(sweep) == {"param", "values"}
            and isinstance(sweep["param"], str) and isinstance(sweep["values"], list)):
        raise ValueError(f'"sweep" must hold exactly a string "param" and a list "values", got {sweep!r}')
    cfg = SystemConfig.from_dict(raw)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    records = run_sweep(cfg, sweep["param"], sweep["values"], methods)
    return emit_report(records, args.out)


def _cmd_convergence(args: argparse.Namespace) -> List[str]:
    raw = _load_config(args.config)
    overrides = raw.pop("variants", None)
    raw.setdefault("trials", 30)
    base = SystemConfig.from_dict(raw)
    results = run_convergence_experiment(convergence_variants(base, overrides), level=args.level)
    return emit_convergence(results, args.out)


def _cmd_concentration(args: argparse.Namespace) -> List[str]:
    k_list = [int(v) for v in args.k_list.split(",") if v.strip()]
    t_list = [int(v) for v in args.t_list.split(",") if v.strip()]
    rows = run_concentration_experiment(k_list, t_list, args.delta_sq, args.trials, base_seed=args.seed)
    return emit_concentration(rows, args.out)


def _cmd_report(args: argparse.Namespace) -> List[str]:
    return emit_report(read_records(args.records), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindmimo",
        description="Blind massive-MIMO detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo sweep over one parameter")
    sim.add_argument("--config", required=True, help="JSON config (SystemConfig fields)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--methods", default="l3", help="comma list from l3,l4,rgd,pilot")
    sim.set_defaults(func=_cmd_simulate)

    conv = sub.add_parser("convergence", help="normalized objective traces per variant")
    conv.add_argument("--config", required=True, help="JSON config; trials default to 30")
    conv.add_argument("--out", required=True)
    conv.add_argument("--level", type=float, default=0.9)
    conv.set_defaults(func=_cmd_convergence)

    conc = sub.add_parser("concentration", help="Gram-concentration tail frequencies")
    conc.add_argument("--k-list", default="4,8")
    conc.add_argument("--t-list", default="30,36,44,54,64,80,100,125")
    conc.add_argument("--delta-sq", type=float, default=0.1)
    conc.add_argument("--trials", type=int, default=1000)
    conc.add_argument("--seed", type=int, default=0)
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
        written = args.func(args)
    except Exception as exc:  # hard errors surface as nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
