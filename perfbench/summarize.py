#!/usr/bin/env python3
"""Summarize benchmark runs: median, quartiles and spread of every metric.

Reads every ``perfbench/out/<workload>-seed<n>-trace<t>/result.json`` left by
``run.py`` (smoke runs excluded) and prints, per workload and metric, the
median, the quartiles and the spread (q3 - q1) / median next to the metric's
bound. ``--write FILE`` also stores the summary, with the ROADMAP re-anchor
figures re-measured from the traced runs, as JSON.

    python3 perfbench/summarize.py --write perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

from run import END_TO_END, OUT, WORKLOADS


def load_runs() -> dict:
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(OUT, "*-seed*-trace*", "result.json"))):
        if "-smoke-" in path:
            continue
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault((result["workload"], "traced" if "trace1" in path else "untraced"), []).append(result)
    return runs


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def summarize(runs: dict) -> dict:
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    out: dict = {}
    for (workload, kind), results in sorted(runs.items()):
        entry = out.setdefault(workload, {})
        metric_names = results[0]["metrics"]
        entry[kind] = {
            "seeds": sorted(r["seed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "metrics": {
                name: {**stats([r["metrics"][name]["value"] for r in results]),
                       "unit": results[0]["metrics"][name]["unit"], "bound": bounds.get(name)}
                for name in metric_names
            },
        }
    return out


def reanchor(summary: dict) -> dict:
    """ROADMAP re-anchor figures, re-measured from the traced runs."""
    def med(workload, name):
        try:
            return summary[workload]["traced"]["metrics"][name]["median"]
        except KeyError:
            return None

    ids_ns = med("select-large", "ledger.ids.ns_per_element")
    return {
        "scalar_compare_M_per_s (search-seq)": med("search-seq", "ledger.compare.m_per_s"),
        "compare_batch_M_pairs_per_s (select-large)": med("select-large", "ledger.compare_batch.m_pairs_per_s"),
        "ids_ms_at_2^17 (select-large)": None if ids_ns is None else ids_ns * (1 << 17) / 1e6,
        "cold_schedule_s (adaptive-sweep, widest build)": med("adaptive-sweep", "primitives.build_schedule.max_wires_s"),
        "widest_schedule_wires (adaptive-sweep)": med("adaptive-sweep", "primitives.build_schedule.max_wires"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", metavar="FILE", help="also write the summary as JSON")
    args = p.parse_args(argv)
    summary = summarize(load_runs())
    for workload in WORKLOADS:
        for kind, block in summary.get(workload, {}).items():
            print(f"== {workload} {kind}: seeds {block['seeds']}, all correct: {block['all_correct']}")
            for name, s in block["metrics"].items():
                bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f} (spread/bound {s['spread'] / s['bound']:.2f})"
                print(f"  {name:42s} {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                      f"  spread {s['spread']:.4f}{bound}")
    figures = reanchor(summary)
    print("== re-anchor figures, re-measured")
    for name, value in figures.items():
        print(f"  {name}: {value if value is None else format(value, '.4g')}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump({"reanchor": figures, "workloads": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
