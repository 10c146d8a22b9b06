#!/usr/bin/env python3
"""Disorder sweeps for the adaptive algorithms.

Sweeps controlled Runs and Inv buckets, verifies the registered bounds and
envelopes, and reports the per-bucket fragility medians so the monotone
scaling in the disorder measure is visible.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from fragility.errors import FragilityError
from fragility.harness import ExperimentSpec, default_bound_sets, run_experiment, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2**15)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failed = False

    sweeps = [
        ("min_by_runs", "controlled_runs", "runs", [1, 2, 64, 1024]),
        ("median_by_runs", "controlled_runs", "runs", [4, 16, 64]),
        ("min_by_inv", "controlled_inv", "inv", [2**4, 2**8, 2**12]),
        ("median_by_inv", "controlled_inv", "inv", [2**4, 2**8, 2**12]),
        ("sort_by_inv", "controlled_inv", "inv", [2**4, 2**8, 2**12]),
        ("extract_sorted_run", "controlled_inv", "inv", [2**4, 2**8, 2**12]),
    ]
    for algo, generator, param, buckets in sweeps:
        medians = []
        for bucket in buckets:
            spec = ExperimentSpec(
                algorithm=algo, generator=generator, n=args.n,
                trials=args.trials, seed=args.seed, **{param: bucket},
            )
            report = run_experiment(spec)
            path = outdir / f"{algo}-{param}{bucket}.json"
            path.write_text(report.to_json(), encoding="utf-8")
            for name in default_bound_sets(algo):
                ok, verdicts = verify(report, name)
                failed = failed or not ok
                if not ok:
                    print(f"FAIL {algo} {param}={bucket} {name}")
            medians.append(report.aggregates["frag_max_median"])
        trend = "monotone" if medians == sorted(medians) else "NON-MONOTONE"
        print(f"{algo}: frag_max medians per {param} bucket {medians} ({trend})")
        failed = failed or medians != sorted(medians)
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        code = main()
    except FragilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)
