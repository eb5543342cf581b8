"""Command-line entry point.

Subcommands: ``verify`` (run a configured experiment), ``simulate`` and
``coupling`` (the same, with ``experiment`` forced to that kind; simulate
draws one realization into ``pattern.csv``), ``report`` (print a
human-readable summary of a result directory).  Every run goes through
``runner.run_experiment``, which owns the result directory.

Exit statuses follow the runner contract: 0 pass, 1 acceptance failure,
2 configuration error, 3 runtime sampling error.  Results depend only on
the config and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import build_experiment_config, parse_kv
from .errors import ConfigError, RenewalClusterError
from .runner import STATUS_CONFIG, STATUS_RUNTIME, run_experiment

__all__ = ["main"]


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_kv(text)


def _cmd_run(args) -> int:
    raw = _load_config(args.config)
    if args.command != "verify":  # simulate and coupling force their kind
        if raw.setdefault("experiment", args.command) != args.command:
            raise ConfigError(f"{args.command} subcommand requires experiment = {args.command}")
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if getattr(args, "reps", None) is not None:
        raw["n_rep"] = str(args.reps)
    cfg = build_experiment_config(raw)
    status = run_experiment(cfg, args.out, raw_config=raw)
    print(f"experiment {cfg.kind}: exit status {status}")
    return status


def _cmd_report(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        print(f"no such result directory: {out}", file=sys.stderr)
        return STATUS_CONFIG
    shown = 0
    for csv in sorted(out.glob("*.csv")):
        print(f"== {csv.name}")
        print(csv.read_text(encoding="utf-8").rstrip())
        shown += 1
    manifest = out / "manifest.txt"
    if manifest.exists():
        print("== manifest.txt")
        print(manifest.read_text(encoding="utf-8").rstrip())
    error = out / "error.txt"
    if error.exists():
        print("== error.txt")
        print(error.read_text(encoding="utf-8").rstrip())
        shown += 1
    return 0 if shown else STATUS_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcluster",
        description="Simulate and statistically verify renewal cluster point processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default="out", help="output directory")

    common(sub.add_parser("simulate", help="draw one realization, write pattern.csv"))
    for p in (sub.add_parser("verify", help="run a verification experiment"),
              sub.add_parser("coupling", help="run a coupling experiment")):
        common(p)
        p.add_argument("--reps", type=int, default=None, help="override replication count")
    rep = sub.add_parser("report", help="print a result directory")
    rep.add_argument("--out", default="out", help="result directory to summarize")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return (_cmd_report if args.command == "report" else _cmd_run)(args)
    except (ConfigError, ValueError) as exc:
        # a ValueError here is an argument an estimator or sampler rejected
        print(f"config error: {exc}", file=sys.stderr)
        return STATUS_CONFIG
    except RenewalClusterError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return STATUS_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
