"""Command line harness: run configured experiments, write CSV reports.

Exit codes: 0 when every metric passes, 1 when a metric fails (the report is
still written), 2 for usage or configuration errors, including those that only
surface while the experiment runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments as ex

USAGE_ERROR = 2
METRIC_FAILURE = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgerace",
                                     description="competing-particle edge experiments")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run an experiment from a JSON config file")
    run_p.add_argument("config", help="path to the configuration file")
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.add_argument("--seed", type=int, help="seed override")
    sub.add_parser("list", help="list experiment names")
    return parser


def _cmd_list() -> int:
    for name in sorted(ex.DESCRIPTIONS):
        print(f"{name:18s} {ex.DESCRIPTIONS[name]}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as err:
        print(f"edgerace: cannot read config: {err}", file=sys.stderr)
        return USAGE_ERROR
    except json.JSONDecodeError as err:
        print(f"edgerace: config is not valid JSON: {err}", file=sys.stderr)
        return USAGE_ERROR
    if isinstance(data, dict):  # anything else is left for parse_spec to reject
        if args.seed is not None:
            data["seed"] = args.seed
        if args.out is not None:
            data["out"] = args.out
    try:
        spec = ex.parse_spec(data)
        if spec.out is None:
            raise ex.SpecError("no output directory given (config key 'out' or --out)")
        # a configuration can pass the schema and still be one the run cannot
        # honour (an ensemble too small for its statistics, say)
        report = ex.run(spec)
        ex.write_report(report, spec.out)
    except (ValueError, ArithmeticError) as err:
        print(f"edgerace: {err}", file=sys.stderr)
        return USAGE_ERROR
    for metric in report.metrics:
        status = "pass" if metric.passed else "FAIL"
        print(f"{status}  {metric.name} = {metric.value:.6g} "
              f"(target {metric.target:.6g}, tolerance {metric.tolerance:.6g})")
    print(f"verdict: {'pass' if report.verdict else 'fail'}")
    return 0 if report.verdict else METRIC_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    parser.print_help()
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
