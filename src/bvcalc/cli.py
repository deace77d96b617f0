"""Command line entry point.

    bvcalc run <scenario.ini> [--out DIR] [--tol X] [--seed N]

Runs the scenario's cases in order and writes ``report.csv`` /
``timing.csv`` (and any field CSVs) into the output directory.  The
directory defaults to the ``BVCALC_OUT`` environment variable, then to
``./bvcalc-out``.

Exit status: 0 when every case passes; 1 when some case fails its
tolerance (the report is still written); 2 for scenario/parse errors and
bad ``--tol`` / ``--seed`` values, with the offending field named on
standard error and no output written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ScenarioError
from .scenario import parse_scenario, run_scenario

ENV_OUT = "BVCALC_OUT"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bvcalc",
        description="Scenario-driven verification runs for the BV calculus library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to the scenario INI file")
    run.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${ENV_OUT}, then ./bvcalc-out)",
    )
    run.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(ENV_OUT) or "bvcalc-out"
    try:
        sc = parse_scenario(args.scenario)
        ok, n_pass, n_total = run_scenario(sc, out_dir, tol=args.tol, seed=args.seed)
    except ScenarioError as exc:
        print(f"bvcalc: scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"bvcalc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"{sc.label} [{sc.kind}]: {n_pass}/{n_total} cases passed -> {out_dir}/report.csv")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
