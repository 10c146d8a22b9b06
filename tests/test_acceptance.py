"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete (they are also shown on failure without -s).  Tolerances and
workload sizes are pinned here and must not be loosened to make a run pass.
"""

import time

import numpy as np

from fragility.harness import ExperimentSpec, child_seed, run_experiment, verify
from fragility.ledger import new_session
from fragility.primitives import (
    build_schedule,
    ceil_log2,
    network_depth_bound,
    network_sort,
    tournament_min,
)
from fragility.search import (
    AMORTIZED_BUDGET_PER_DISTANCE,
    build_offset_structure,
    distance_to,
    exp_search,
    exp_search_query_budget,
    make_view,
    offset_search,
    potential_audit,
)
from fragility.selection import reset


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"CRITERION {num:>2} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_correctness_suite():
    """Every algorithm matches its oracle on >= 50 seeds across n in {10, 100, 1e4}.

    The 50 seeds per algorithm are distributed 25/20/5 over the three sizes.
    """
    cells = [(10, 25), (100, 20), (10_000, 5)]
    start = time.monotonic()
    failures = []
    for algo in (
        "exp_search", "offset_search", "randomized_search", "select_kth",
        "min_by_runs", "median_by_runs", "min_by_inv", "median_by_inv",
        "sort_by_inv", "extract_sorted_run", "median_two_runs",
        "network_sort", "tournament_min", "mom_select", "small_median",
    ):
        for n, trials in cells:
            kwargs = {}
            if algo in ("exp_search", "offset_search", "randomized_search"):
                kwargs = {"generator": "uniform_ranks", "searches": 100 if n <= 100 else 50}
            elif algo == "median_two_runs":
                kwargs = {"generator": "two_runs"}
            spec = ExperimentSpec(algorithm=algo, n=n, trials=trials, seed=n, **kwargs)
            report = run_experiment(spec)
            if report.aggregates["correct_fraction"] != 1.0:
                failures.append((algo, n, report.aggregates["correct_fraction"]))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed <= 120
    _criterion(1, "oracle agreement, all algorithms", ok,
               f"15 algorithms x 50 seeds, {elapsed:.1f}s" + (f"; failures={failures}" if failures else ""))


def test_criterion_02_exp_search_rank_budget_full_sweep():
    """Query fragility <= 2*(floor(log2(k+2)) + 2) for every rank k = 1..n, n = 2^16."""
    n = 1 << 16
    values = [2 * i for i in range(n)] + [2 * k - 1 for k in range(1, n + 1)]
    ledger, ids = new_session(values)
    view = make_view(ids[:n])
    violations = 0
    wrong = 0
    for k, q in enumerate(ids[n:], start=1):
        if exp_search(ledger, view, q) != k:
            wrong += 1
        if int(ledger.counts[q]) > exp_search_query_budget(k):
            violations += 1
    ok = violations == 0 and wrong == 0
    _criterion(2, "exp_search rank budget, k=1..2^16", ok,
               f"violations={violations}, wrong={wrong}")


def test_criterion_03_offset_search_amortized_budget():
    """count(y) <= ceil(log2 n) + sum 112/d for every y; per-search potential audit."""
    start = time.monotonic()
    bad_rows = 0
    wrong = 0
    for workload in ("uniform_ranks", "skewed_ranks"):
        spec = ExperimentSpec(algorithm="offset_search", generator=workload,
                              n=1024, searches=10_000, trials=10, seed=3)
        report = run_experiment(spec)
        for row in report.rows:
            if row["violations"] != 0 or row["min_slack"] < 0:
                bad_rows += 1
            if not row["correct"]:
                wrong += 1
    # per-search potential audit on a smaller workload: for every audited y,
    # actual(y) + delta(phi_y) <= 112/d(x, y) on every single search
    n, m = 1024, 1000
    rng = np.random.default_rng(30)
    ranks = rng.integers(0, n + 1, size=m)
    ledger, ids = new_session([2 * i for i in range(n)] + [2 * int(r) - 1 for r in ranks])
    view = make_view(ids[:n])
    offsets = build_offset_structure(view)
    audited = [int(p) for p in rng.choice(n, size=16, replace=False)]
    audit_violations = 0
    for q in ids[n:]:
        phi_before = {p: potential_audit(offsets, p) for p in audited}
        counts_before = {p: int(ledger.counts[p]) for p in audited}
        rank = offset_search(ledger, view, offsets, q, [])
        for p in audited:
            actual = int(ledger.counts[p]) - counts_before[p]
            dphi = potential_audit(offsets, p) - phi_before[p]
            if actual + dphi > AMORTIZED_BUDGET_PER_DISTANCE / distance_to(rank, p) + 1e-9:
                audit_violations += 1
    elapsed = time.monotonic() - start
    ok = bad_rows == 0 and wrong == 0 and audit_violations == 0 and elapsed <= 60
    _criterion(3, "offset_search amortized 112/d budget", ok,
               f"bad_rows={bad_rows}, per-search audit violations={audit_violations}, {elapsed:.1f}s")


def test_criterion_04_randomized_search_mean_fragility():
    """Mean per-element fragility <= 4 * m * log2(n) / n at n=1024, m=10^4, 10 seeds."""
    spec = ExperimentSpec(algorithm="randomized_search", generator="uniform_ranks",
                          n=1024, searches=10_000, trials=10, seed=4)
    report = run_experiment(spec)
    ok, verdicts = verify(report, "randomized-mean")
    worst = min(v["slack"] for v in verdicts)
    ok = ok and report.aggregates["correct_fraction"] == 1.0
    _criterion(4, "randomized_search mean budget", ok, f"min slack {worst:.1f}")


def test_criterion_05_selection_expectations():
    """(a) rank-k in C always; (b) mean |C| <= 1.1*2(k+1); (c) |S'| and pre-load means."""
    start = time.monotonic()
    n = 1 << 14
    seeds_per_k = 1000  # 4000 seeds total across the four ranks
    containment_misses = 0
    size_failures = []
    for k in (0, 1, 3, 7):
        sizes = []
        for t in range(seeds_per_k):
            rng = np.random.default_rng(child_seed(500 + k, t))
            vals = rng.permutation(n)
            ledger, _ = new_session(vals)
            cand = reset(ledger, np.arange(n), k, rng)
            target = int(np.flatnonzero(vals == k)[0])
            if target not in cand:
                containment_misses += 1
            sizes.append(len(cand))
        mean_c = sum(sizes) / len(sizes)
        if mean_c > 1.1 * 2 * (k + 1):
            size_failures.append((k, mean_c))
    c_failures = []
    for k in (2, 4, 8):
        spec = ExperimentSpec(algorithm="select_kth", n=1 << 17, k=k, trials=150,
                              seed=50 + k, epsilon=0.25)
        report = run_experiment(spec)
        ok_k, verdicts = verify(report, "select-expectations")
        if not ok_k or report.aggregates["correct_fraction"] != 1.0:
            c_failures.append((k, [v for v in verdicts if not v["passed"]]))
    elapsed = time.monotonic() - start
    ok = (containment_misses == 0 and not size_failures and not c_failures
          and elapsed <= 180)
    _criterion(5, "selection candidate/filter expectations", ok,
               f"misses={containment_misses}, |C| fails={size_failures}, "
               f"select fails={c_failures}, {elapsed:.1f}s")


def test_criterion_06_min_by_runs_bound():
    """max fragility <= 2 + ceil(log2 Runs) over Runs in {1, 2, 64, 1024}, 50 seeds."""
    failures = []
    for runs in (1, 2, 64, 1024):
        spec = ExperimentSpec(algorithm="min_by_runs", generator="controlled_runs",
                              n=1 << 14, runs=runs, trials=50, seed=6)
        report = run_experiment(spec)
        ok_r, verdicts = verify(report, "min-runs")
        if not ok_r or report.aggregates["correct_fraction"] != 1.0:
            failures.append(runs)
    _criterion(6, "min_by_runs 2 + ceil(log2 Runs)", not failures,
               f"failing buckets={failures}" if failures else "4 buckets x 50 seeds")


def test_criterion_07_extraction_structure():
    """extract fragility <= 4, |I| <= 2*Inv; min_by_inv <= 4 + ceil(log2(|I|+1)) + 1."""
    failures = []
    jobs = [
        ("extract_sorted_run", "random", None, "extract-structure"),
        ("extract_sorted_run", "controlled_inv", 1 << 8, "extract-structure"),
        ("min_by_inv", "random", None, "min-inv"),
        ("min_by_inv", "controlled_inv", 1 << 8, "min-inv"),
    ]
    for algo, gen, inv, bound_set in jobs:
        spec = ExperimentSpec(algorithm=algo, generator=gen, n=4096, inv=inv,
                              trials=50, seed=7)
        report = run_experiment(spec)
        ok_j, _ = verify(report, bound_set)
        if not ok_j or report.aggregates["correct_fraction"] != 1.0:
            failures.append((algo, gen))
    _criterion(7, "extraction structure and min_by_inv", not failures,
               f"failures={failures}" if failures else "100 seeds per algorithm")


def test_criterion_08_adaptive_envelopes_and_monotonicity():
    """Controlled sweeps at n=2^15, 50 seeds: correct, monotone medians, envelopes.

    The frozen envelopes carry squared-log factors because the comparator
    network substitutes for a logarithmic-fragility sorter; the unsquared
    bounds are out of reach at this scale by construction.
    """
    failures = []
    sweeps = [
        ("median_by_runs", "controlled_runs", "runs", (4, 16, 64), "median-runs-envelope"),
        ("median_by_inv", "controlled_inv", "inv", (1 << 4, 1 << 8, 1 << 12), "median-inv-envelope"),
        ("sort_by_inv", "controlled_inv", "inv", (1 << 4, 1 << 8, 1 << 12), "sort-inv-envelope"),
    ]
    for algo, gen, param, buckets, bound_set in sweeps:
        medians = []
        for bucket in buckets:
            spec = ExperimentSpec(algorithm=algo, generator=gen, n=1 << 15,
                                  trials=50, seed=8, **{param: bucket})
            report = run_experiment(spec)
            ok_b, _ = verify(report, bound_set)
            if not ok_b or report.aggregates["correct_fraction"] != 1.0:
                failures.append((algo, bucket, "bounds"))
            medians.append(report.aggregates["frag_max_median"])
        if medians != sorted(medians):
            failures.append((algo, "non-monotone", medians))
    _criterion(8, "adaptive envelopes + monotone medians", not failures,
               f"failures={failures}" if failures else "3 sweeps x 3 buckets x 50 seeds")


def test_criterion_09_network_and_tournament_properties(sorts_every_zero_one_input):
    """0-1 principle m <= 12; network fragility <= depth; tournament <= ceil(log2 m)."""
    zero_one_ok = all(
        sorts_every_zero_one_input(m, *build_schedule(m)[:2]) for m in range(1, 13)
    )
    depth_ok = True
    tournament_ok = True
    for m in (4, 64, 1024):
        rng = np.random.default_rng(m)
        ledger, ids = new_session([int(v) for v in rng.permutation(m)])
        network_sort(ledger, ids)
        depth_ok = depth_ok and int(ledger.counts.max()) <= network_depth_bound(m)
        values = [int(v) for v in rng.permutation(m)]
        ledger, ids = new_session(values)
        winner = tournament_min(ledger, ids)
        tournament_ok = (tournament_ok and values[winner] == 0
                         and int(ledger.counts[winner]) <= ceil_log2(m))
    ok = zero_one_ok and depth_ok and tournament_ok
    _criterion(9, "network 0-1 principle, depth, tournament", ok,
               f"zero_one={zero_one_ok}, depth={depth_ok}, tournament={tournament_ok}")


def test_criterion_10_reproducibility(tmp_path):
    """Identical specs produce byte-identical reports; corrupted reports fail verify."""
    import json

    from fragility import cli

    specs = [
        ExperimentSpec(algorithm="offset_search", generator="uniform_ranks",
                       n=256, searches=500, trials=4, seed=10),
        ExperimentSpec(algorithm="select_kth", n=2048, k=3, trials=4, seed=10,
                       epsilon=0.25),
        ExperimentSpec(algorithm="sort_by_inv", generator="controlled_inv",
                       n=1024, inv=64, trials=4, seed=10),
    ]
    identical = all(run_experiment(s).to_json() == run_experiment(s).to_json()
                    for s in specs)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--algo", "min_by_runs", "--generator", "controlled_runs",
            "--n", "512", "--runs", "8", "--trials", "5"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    cli_identical = a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    payload["rows"][0]["frag_max"] = 10_000
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(payload))
    corrupt_detected = cli.main(["verify", "--report", str(corrupted)]) == 1
    ok = identical and cli_identical and corrupt_detected
    _criterion(10, "byte-identical reports, corruption detected", ok,
               f"identical={identical and cli_identical}, corruption_detected={corrupt_detected}")
