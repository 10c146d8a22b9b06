#!/usr/bin/env python3
"""Sampled-selection sweeps: candidate-set sizes and selected-element load.

Runs select_kth across small ranks with the sampling branch active and prints
per-k means (candidate size, filtered-set size, phase fragility of the
returned element).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from fragility.errors import FragilityError
from fragility.harness import ExperimentSpec, default_bound_sets, run_experiment, verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2**17)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ks", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failed = False
    for k in args.ks:
        spec = ExperimentSpec(
            algorithm="select_kth", n=args.n, k=k, trials=args.trials,
            seed=args.seed, epsilon=args.epsilon,
        )
        report = run_experiment(spec)
        path = outdir / f"select-k{k}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        ok = all(verify(report, name)[0] for name in default_bound_sets("select_kth"))
        rows = report.rows
        mean = lambda key: sum(r[key] for r in rows) / len(rows)
        print(
            f"{'pass' if ok else 'FAIL'} k={k}: |C| {mean('C_size'):.2f} "
            f"|S'| {mean('Sprime_size'):.2f} "
            f"pre {mean('fragility_of_selected_pre'):.2f} "
            f"filter {mean('fragility_of_selected_filter'):.2f} "
            f"backend {mean('fragility_of_selected_backend'):.2f} -> {path}"
        )
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        code = main()
    except FragilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)
