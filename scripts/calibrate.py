#!/usr/bin/env python3
"""Measure the empirical envelope constants that are frozen in calibration.py.

Run this after algorithmic changes; if a suggested constant exceeds the frozen
one, re-freeze deliberately (the constants are inputs to the verifiers, never
fitted at test time).  Each measured constant is frozen * frag / envelope, the
constant at which calibration's own envelope would just hold.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from fragility import calibration
from fragility.errors import FragilityError
from fragility.harness import ExperimentSpec, run_experiment


def measure_median_runs(n: int, seeds: int) -> float:
    worst = 0.0
    for runs in (4, 16, 64):
        spec = ExperimentSpec(
            algorithm="median_by_runs", generator="controlled_runs",
            n=n, runs=runs, trials=seeds, seed=7,
        )
        rep = run_experiment(spec)
        envelope = calibration.median_runs_envelope(runs, n)
        worst = max(worst, calibration.C_MED * rep.aggregates["frag_max"] / envelope)
    return worst


def measure_inv(algorithm: str, frozen: float, envelope, n: int, seeds: int) -> float:
    worst = 0.0
    for inv in (2**4, 2**8, 2**12):
        spec = ExperimentSpec(
            algorithm=algorithm, generator="controlled_inv",
            n=n, inv=inv, trials=seeds, seed=7,
        )
        rep = run_experiment(spec)
        worst = max(worst, frozen * rep.aggregates["frag_max"] / envelope(inv))
    return worst


def measure_randomized(n: int, searches: int, seeds: int) -> float:
    spec = ExperimentSpec(
        algorithm="randomized_search", generator="uniform_ranks",
        n=n, searches=searches, trials=seeds, seed=7,
    )
    rep = run_experiment(spec)
    frag_mean = max(row["frag_mean"] for row in rep.rows)
    return calibration.RANDOMIZED_MEAN_FACTOR * frag_mean / calibration.randomized_mean_budget(
        n, searches
    )


def measure_two_run_median(n: int, seeds: int) -> int:
    worst = 0
    rng = np.random.default_rng(7)
    for _ in range(seeds):
        spec = ExperimentSpec(
            algorithm="median_two_runs", generator="two_runs",
            n=n, split=int(rng.integers(0, n + 1)), trials=1,
            seed=int(rng.integers(0, 2**32)),
        )
        worst = max(worst, run_experiment(spec).aggregates["frag_max"])
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2**15)
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()

    rows = [
        ("C_MED", calibration.C_MED, measure_median_runs(args.n, args.seeds)),
        (
            "C_MI",
            calibration.C_MI,
            measure_inv("median_by_inv", calibration.C_MI, calibration.median_inv_envelope,
                        args.n, args.seeds),
        ),
        (
            "C_S",
            calibration.C_S,
            measure_inv("sort_by_inv", calibration.C_S, calibration.sort_inv_envelope,
                        args.n, args.seeds),
        ),
        (
            "RANDOMIZED_MEAN_FACTOR",
            calibration.RANDOMIZED_MEAN_FACTOR,
            measure_randomized(1024, 10_000, args.seeds),
        ),
        (
            "MEDIAN_TWO_RUNS_MAX",
            calibration.MEDIAN_TWO_RUNS_MAX,
            measure_two_run_median(10_000, args.seeds),
        ),
    ]
    print(f"{'constant':<24}{'frozen':>10}{'measured':>12}{'status':>10}")
    for name, frozen, measured in rows:
        ok = measured <= frozen
        print(f"{name:<24}{frozen:>10.3g}{measured:>12.4g}{'ok' if ok else 'EXCEEDED':>10}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except FragilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)
