"""Configuration-driven command line entry point.

``run`` executes one named experiment from a config file and writes a JSON
report plus a per-row CSV into the output directory; ``list`` prints the
experiment registry.  Exit status: 0 on success, 1 on any input problem, 2 when
the run finished but a bound comparison was violated, so CI fails loudly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import WonhamLabError
from .experiments import ExperimentReport, list_experiments, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wonhamlab",
        description="Filter simulation experiments with analytic-bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config", help="path to a YAML run configuration")
    run_p.add_argument("experiment", help="registered experiment name")
    run_p.add_argument("--out", default=".", help="output directory (default: current)")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--trials", type=int, default=None, help="override the trial count")
    run_p.add_argument("--dt", type=float, default=None, help="override the grid step")
    run_p.add_argument(
        "--strict-tolerance",
        action="store_true",
        help="disable the integrator-error allowance in bound comparisons",
    )

    sub.add_parser("list", help="list registered experiments")
    return parser


def write_report(report: ExperimentReport, out_dir: Path) -> tuple[Path, Path]:
    """Write <experiment>-<seed>.json and .csv; both carry the resolved config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{report.experiment}-{report.master_seed}"
    json_path = out_dir / f"{stem}.json"
    csv_path = out_dir / f"{stem}.csv"
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# experiment: {report.experiment}\n")
        fh.write(f"# master_seed: {report.master_seed}\n")
        fh.write(f"# n_trials: {report.n_trials}\n")
        fh.write(f"# violations: {report.violations}\n")
        fh.write(f"# config: {json.dumps(report.config, sort_keys=True)}\n")
        if report.table:
            columns = list(dict.fromkeys(key for row in report.table for key in row))
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for row in report.table:
                writer.writerow({k: row.get(k, "") for k in columns})
    return json_path, csv_path


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config, seed=args.seed, trials=args.trials, dt=args.dt,
                             strict_tolerance=args.strict_tolerance or None)
        report = run_experiment(args.experiment, config.to_spec())
        json_path, csv_path = write_report(report, Path(args.out))
    except WonhamLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {json_path} and {csv_path}")
    if report.violations:
        print(f"BOUND VIOLATIONS: {report.violations}", file=sys.stderr)
        return 2
    return 0


def _cmd_list() -> int:
    for name, description in list_experiments():
        print(f"{name}: {description}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_run(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
