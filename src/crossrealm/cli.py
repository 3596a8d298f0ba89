"""Command-line interface: run experiments, validate scenarios, check reports.

Exit codes: 0 success or all expectations pass, 1 validation or parse
failure, 2 one or more expectations fail.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, simnet
from .errors import CrossRealmError, ScenarioValidationError
from .protocol import TimeoutMode


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrealm",
        description="Multiparty cross-realm session authentication simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit report files")
    run.add_argument("--scenario", type=Path, default=None,
                     help="scenario file (defaults to the built-in default scenario)")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--timeout-mode", default=None,
                     help="none | per-phase:<seconds> | localized-f:<seconds>")
    run.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    run.add_argument("--format", choices=("csv", "json-like"), default="csv")

    val = sub.add_parser("validate", help="parse and validate a scenario file")
    val.add_argument("--scenario", type=Path, required=True)

    chk = sub.add_parser("check", help="check an emitted report against expectations")
    chk.add_argument("--report", type=Path, required=True, help="report directory")
    chk.add_argument("--expect", type=Path, required=True, help="expectations file")
    return parser


def _cmd_run(args) -> int:
    scenario = (harness.load_scenario(args.scenario) if args.scenario
                else harness.Scenario())
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.timeout_mode is not None:
        scenario = replace(scenario, timeout_mode=TimeoutMode.parse(args.timeout_mode))
    try:  # the output directory is made first, so a bad --out fails before the run
        args.out.mkdir(parents=True, exist_ok=True)
        result = simnet.run(scenario)
        report = harness.aggregate(result)
        paths = harness.emit_report(report, args.format, args.out)
        paths.append(harness.emit_event_log(result, args.out))
    except OSError as exc:  # the directory or a report file cannot be written
        raise ScenarioValidationError("out", f"{exc.filename or args.out}: {exc.strerror}") from exc
    print(f"sessions: started={report['sessions.started']} "
          f"completed={report['sessions.completed']} dropped={report['sessions.dropped']} "
          f"in-flight={report['sessions.in_flight_at_horizon']}")
    if report["end_to_end_s.mean"] is not None:
        print(f"end-to-end mean: {report['end_to_end_s.mean']:.3f} s")
    print(f"peak traffic sent: {report['traffic_bps.peak_sent'] / 1e6:.3f} Mbps")
    print(f"max network delay: {report['max_network_delay_s'] * 1e3:.3f} ms")
    if report["horizon_exceeded"]:
        print("warning: horizon exceeded; report is partial")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    harness.load_scenario(args.scenario)
    print(f"{args.scenario}: ok")
    return 0


def _cmd_check(args) -> int:
    tree = harness.load_report(args.report)
    expectations = harness.load_expectations(args.expect)
    verdicts = harness.check_acceptance(tree, expectations)
    failures = 0
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"{status} {v.name}: {v.detail}")
        failures += 0 if v.passed else 1
    print(f"{len(verdicts) - failures}/{len(verdicts)} expectations met")
    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_check(args)
    except CrossRealmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
