#!/usr/bin/env python3
"""Predecessor-search workloads: amortized budgets and fragility spread.

Runs the three searchers over uniform and skewed rank workloads, verifies the
registered bounds, and writes one JSON report per configuration.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from fragility.errors import FragilityError
from fragility.harness import ExperimentSpec, default_bound_sets, run_experiment, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--searches", type=int, default=10_000)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failed = False
    jobs = [
        ("exp_search", "uniform_ranks"),
        ("offset_search", "uniform_ranks"),
        ("offset_search", "skewed_ranks"),
        ("randomized_search", "uniform_ranks"),
    ]
    for algo, workload in jobs:
        spec = ExperimentSpec(
            algorithm=algo, generator=workload, n=args.n,
            searches=args.searches, trials=args.trials, seed=args.seed,
        )
        report = run_experiment(spec)
        path = outdir / f"{algo}-{workload}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        for name in default_bound_sets(algo):
            ok, verdicts = verify(report, name)
            worst = min(v["slack"] for v in verdicts)
            status = "pass" if ok else "FAIL"
            print(f"{status} {algo} {workload} {name}: min slack {worst:.3f} -> {path}")
            failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        code = main()
    except FragilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)
