"""Command-line interface: generate inputs, run experiments and sweeps, verify bounds.

Exit codes: 0 on success, 1 when a verification fails, 2 on configuration
errors (bad flags, infeasible targets, malformed spec files or reports).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
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
    read_spec_file,
    run_experiment,
    verify,
)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spec_flags(args) -> dict:
    """The spec flags that were set, as the strings given."""
    fields = ExperimentSpec.__dataclass_fields__
    return {key: value for key, value in vars(args).items() if key in fields and value is not None}


def _cmd_generate(args) -> int:
    # network_sort takes every sequence generator: unset fields fill in as in `run`
    spec = ExperimentSpec.from_mapping({"algorithm": "network_sort", **_spec_flags(args)})
    vals = generate(spec, np.random.default_rng(spec.seed))
    _write(args.out, "\n".join(str(v) for v in vals) + "\n")
    return 0


def _cmd_run(args) -> int:
    flags = _spec_flags(args)
    if args.spec and flags:
        named = ", ".join("--algo" if key == "algorithm" else f"--{key}" for key in flags)
        raise ConfigError(f"--spec takes no spec flags, but got {named}")
    mapping = read_spec_file(args.spec) if args.spec else flags
    if "algorithm" not in mapping and not args.spec:
        raise FragilityError("either --spec or --algo is required")
    report = run_experiment(ExperimentSpec.from_mapping(mapping))
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


def _verdicts(report: Report, names, path: str) -> list[tuple[str, list[dict]]]:
    """Each named bound set with its verdicts.  A row that lacks a key a bound
    reads, or holds a value of the wrong type, makes ``path`` malformed."""
    try:
        return [(name, verify(report, name)[1]) for name in names]
    except KeyError as exc:
        raise ConfigError(f"malformed report {path}: a row lacks {exc}") from None
    except (TypeError, AttributeError) as exc:  # AttributeError: a float n in ceil_log2
        raise ConfigError(f"malformed report {path}: a row value has the wrong type: {exc}") from None


def _cmd_verify(args) -> int:
    report = _read_report(args.report)
    names = args.bounds or default_bound_sets(report.spec["algorithm"])
    lines, all_ok = [], True
    for name, verdicts in _verdicts(report, names, args.report):
        for v in verdicts:
            all_ok = all_ok and v["passed"]
            trial = "-" if v["trial"] is None else v["trial"]
            lines.append(f"{'PASS' if v['passed'] else 'FAIL'} {name} {v['bound']} "
                         f"trial={trial} slack={v['slack']:.4g}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def _cmd_report(args) -> int:
    summary = aggregate_reports([_read_report(path) for path in args.reports])
    _write(args.out, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _expand(path: str) -> list[tuple[str, dict, ExperimentSpec]]:
    """(report name, varied keys, spec) of each combination of the file's
    comma-separated list values, the first listed key varying slowest."""
    lists = {key: [v.strip() for v in value.split(",")] for key, value in read_spec_file(path).items()}
    varied = [key for key, values in lists.items() if len(values) > 1]
    stem = os.path.splitext(os.path.basename(path))[0]
    out = []
    for combo in itertools.product(*lists.values()):
        try:
            spec = ExperimentSpec.from_mapping(dict(zip(lists, combo)))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        values = {key: getattr(spec, key) for key in varied}
        out.append((stem + "".join(f"-{k}={v}" for k, v in values.items()) + ".json", values, spec))
    return out


def _bound_summary(verdicts: list[dict]) -> dict:
    """Each bound's verdicts as ``passed``, ``min_slack`` and the largest
    ``value / limit`` where ``limit > 0`` (None if there is none)."""
    by_bound: dict = {}
    for v in verdicts:
        by_bound.setdefault(v["bound"], []).append(v)
    return {bound: {"passed": all(v["passed"] for v in vs), "min_slack": min(v["slack"] for v in vs),
                    "max_ratio": max((v["value"] / v["limit"] for v in vs if v["limit"] > 0),
                                     default=None)}
            for bound, vs in by_bound.items()}


def _cmd_sweep(args) -> int:
    jobs = [(path, *job) for path in args.files for job in _expand(path)]
    if len({name for _, name, _, _ in jobs}) < len(jobs):
        raise ConfigError("two combinations share a report name: rename a file or drop a repeat")
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
    all_ok = True
    for path, name, varied, spec in jobs:
        report = run_experiment(spec)
        if args.outdir:
            _write(os.path.join(args.outdir, name), report.to_json())
        bounds = dict(_verdicts(report, default_bound_sets(spec.algorithm), path))
        all_ok = all_ok and all(v["passed"] for vs in bounds.values() for v in vs)
        rows = report.rows
        means = {key: sum(row[key] for row in rows) / len(rows) for key, value in rows[0].items()
                 if type(value) in (int, float) and key not in ("trial", "seed")}
        line = {"file": path, "varied": varied, "aggregates": report.aggregates, "means": means,
                "bounds": {bound_set: _bound_summary(vs) for bound_set, vs in bounds.items()}}
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0 if all_ok else 1


def _add_spec_flags(parser, names, **choices) -> None:
    """One flag per ExperimentSpec field in ``names``.  An unset flag is None,
    and ``ExperimentSpec.from_mapping`` reads the strings given and fills in
    the spec's defaults."""
    for name in names:
        if name == "duplicates":
            parser.add_argument("--duplicates", action="store_const", const=True)
        else:
            flag = "--algo" if name == "algorithm" else f"--{name}"
            parser.add_argument(flag, dest=name, choices=choices.get(name))


@functools.cache  # a parser keeps no state between parses, so every call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragility", description="fragile-complexity experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit an input sequence")
    _add_spec_flags(gen, ("generator", "n", "runs", "inv", "split", "k", "seed", "duplicates"),
                    generator=list(SEQUENCE_GENERATORS))
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run an experiment and emit a report")
    run.add_argument("--spec", default=None, help="key=value spec file")
    _add_spec_flags(run, ExperimentSpec.__dataclass_fields__)
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

    swp = sub.add_parser("sweep", help="run every combination of spec files' list values")
    swp.add_argument("files", nargs="+", metavar="FILE")
    swp.add_argument("--outdir", default=None, help="also write each report here")
    swp.set_defaults(func=_cmd_sweep)

    return parser


# mallopt(3) parameters and the values main sets, so that freed heap memory
# stays in the process.  A select_kth trial at n = 2^17 allocates about 10 MB
# of 1 MB arrays; with glibc's defaults the heap top went back to the OS as
# they were freed and each trial faulted them in again: 800-2900 minor
# faults per trial, against 1-3 with these values.  Setting either parameter
# turns off glibc's dynamic mmap threshold, so both are set.  32 MB is
# mallopt(3)'s largest mmap threshold on 64-bit, and 256 MB far exceeds what
# a trial frees.  Lower values that also kept the faults away (8 MB and
# 16 MB) gave the same peak RSS; 4 MB and 8 MB did not keep them away.
# The process keeps its peak heap until it exits.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20))


def keep_freed_memory() -> bool:
    """On glibc, set :data:`_HEAP_POLICY` through ``mallopt``; returns whether
    every call succeeded.  Elsewhere it does nothing and returns False.  The
    trim threshold is set only once the mmap threshold is."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return False
    import ctypes  # already loaded by numpy

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY)


def main(argv: Optional[Sequence[str]] = None) -> int:
    keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FragilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
