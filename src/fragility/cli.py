"""Command-line interface: generate inputs, run experiments, verify bounds.

Exit codes: 0 on success, 1 when a verification fails, 2 on configuration
errors (bad flags, infeasible targets, malformed spec files or reports).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, FragilityError
from .harness import (
    ALGORITHMS,
    SEQUENCE_GENERATORS,
    ExperimentSpec,
    Report,
    aggregate_reports,
    default_bound_sets,
    generate,
    run_experiment,
    verify,
)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    # the flags are a spec's generator fields, with the CLI's own defaults
    vals = generate(args, np.random.default_rng(args.seed))
    _write(args.out, "\n".join(str(v) for v in vals) + "\n")
    return 0


def _spec_from_args(args) -> ExperimentSpec:
    if args.spec:
        return ExperimentSpec.from_file(args.spec)
    fields = ExperimentSpec.__dataclass_fields__
    mapping = {key: value for key, value in vars(args).items() if key in fields and value is not None}
    if "algorithm" not in mapping:
        raise FragilityError("either --spec or --algo is required")
    return ExperimentSpec.from_mapping(mapping)


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    report = run_experiment(spec)
    _write(args.out, report.to_csv() if args.format == "csv" else report.to_json())
    return 0


def _read_report(path: str) -> Report:
    """The report in ``path``: a spec mapping that names a known algorithm and
    a non-empty list of row mappings, each with its ``trial``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = Report.from_json(fh.read())
        except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, not a report
            raise ConfigError(f"malformed report {path}: {type(exc).__name__}: {exc}") from None
    spec, rows = report.spec, report.rows
    if not (isinstance(spec, dict) and isinstance(spec.get("algorithm"), str)
            and spec["algorithm"] in ALGORITHMS):
        problem = "its spec names no known algorithm"
    elif not (isinstance(rows, list) and rows
              and all(isinstance(row, dict) and "trial" in row for row in rows)):
        problem = "its rows are not a non-empty list of trials"
    elif not isinstance(report.aggregates, dict):
        problem = "its aggregates are not a mapping"
    else:
        return report
    raise ConfigError(f"malformed report {path}: {problem}")


def _cmd_verify(args) -> int:
    report = _read_report(args.report)
    all_ok = True
    lines = []
    for name in args.bounds or default_bound_sets(report.spec["algorithm"]):
        try:
            ok, verdicts = verify(report, name)
        except KeyError as exc:
            raise ConfigError(f"malformed report {args.report}: a row lacks {exc}") from None
        except TypeError as exc:
            raise ConfigError(
                f"malformed report {args.report}: a row value has the wrong type: {exc}"
            ) from None
        all_ok = all_ok and ok
        for v in verdicts:
            trial = "-" if v["trial"] is None else v["trial"]
            lines.append(
                f"{'PASS' if v['passed'] else 'FAIL'} {name} {v['bound']} "
                f"trial={trial} slack={v['slack']:.4g}"
            )
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def _cmd_report(args) -> int:
    summary = aggregate_reports([_read_report(path) for path in args.reports])
    _write(args.out, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragility", description="fragile-complexity experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit an input sequence")
    gen.add_argument("--generator", default="random", choices=list(SEQUENCE_GENERATORS))
    gen.add_argument("--n", type=int, default=1024)
    gen.add_argument("--runs", type=int, default=2)
    gen.add_argument("--inv", type=int, default=0)
    gen.add_argument("--split", type=int, default=None)
    gen.add_argument("--k", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--duplicates", action="store_true")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run an experiment and emit a report")
    run.add_argument("--spec", default=None, help="key=value spec file")
    run.add_argument("--algo", dest="algorithm", metavar="ALGO", default=None)
    run.add_argument("--generator", default="random")
    run.add_argument("--n", type=int, default=1024)
    run.add_argument("--trials", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=None)
    run.add_argument("--inv", type=int, default=None)
    run.add_argument("--split", type=int, default=None)
    run.add_argument("--k", type=int, default=None)
    run.add_argument("--searches", type=int, default=1000)
    run.add_argument("--epsilon", type=float, default=0.01)
    run.add_argument("--backend", default="network")
    run.add_argument("--duplicates", action="store_true")
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify", help="check registered bounds against a report")
    ver.add_argument("--report", required=True)
    ver.add_argument(
        "--bounds",
        action="append",
        default=None,
        help="bound-set name (repeatable); defaults to all applicable sets",
    )
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", help="aggregate several run reports")
    rep.add_argument("reports", nargs="+")
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FragilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
