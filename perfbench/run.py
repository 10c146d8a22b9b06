#!/usr/bin/env python3
"""Layered benchmark of `fragility`: seeded experiment specs, run and verified.

Each workload is a closed loop with one client (one process, one thread). A
*pass* runs the workload's spec list once, each spec through
``fragility.cli.main(["run", "--spec", ...])`` and then
``cli.main(["verify", ...])`` in-process: the path of a user's
``fragility run`` + ``fragility verify``, minus interpreter start, which
``setup_s`` covers. Passes repeat back to back until ``--seconds`` have
passed; the pass under way then finishes. Every pass uses the same specs, so
its reports must be byte-identical to the first pass's. Per-process caches
(``build_schedule``'s ``lru_cache``) are cleared before every spec, because a
CLI user starts each ``fragility run`` in a fresh process. BENCHMARK.json
lists select-large and small-many; search-seq and adaptive-sweep run on
request (see ``LISTED``).

    python3 perfbench/run.py --workload select-large --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload small-many --seed 1 --seconds 1 --trace 1 --smoke
    python3 perfbench/run.py --write-config     # regenerate BENCHMARK.json

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs half the
time untraced (the reference counts, digests and trials/s), then half with
spans around every layer (see ``spans.py``), and prints the per-layer
metrics. ``--smoke`` shrinks every workload to tiny inputs. The last line of
stdout is one JSON object; the exit code is 0 only if every trial passed.
Specs, reports, verdicts, spans and a full ``result.json`` are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from spans import END, LEAF_CALLS, LEAF_S, NAME, SIZE, START, TRIAL, Tracer, fragility_modules, rebind

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RUN_SECONDS = 55
SETUP_PROBES = 9

now = time.perf_counter


# ---------------------------------------------------------------------------
# workloads: name -> (why, spec builder).  A builder returns the spec list of
# one pass at full size, or at tiny size for --smoke; the seed is added later.


def _select_large(tiny: bool) -> list[dict]:
    # The C5 spec, with 5 trials per k instead of 150 so that a pass fits
    # in a run several times over.
    n, trials = (1 << 10, 2) if tiny else (1 << 17, 5)
    return [
        dict(algorithm="select_kth", n=n, k=k, epsilon=0.25, trials=trials)
        for k in (2, 4, 8)
    ]


def _adaptive_sweep(tiny: bool) -> list[dict]:
    # The C8 spec, one trial per bucket: every bucket pays its cold schedule
    # builds, as each `fragility run` of C8 would.
    n = 1 << 9 if tiny else 1 << 15
    specs = [
        dict(algorithm="median_by_runs", generator="controlled_runs", n=n, runs=r, trials=1)
        for r in (4, 16, 64)
    ]
    for algo in ("median_by_inv", "sort_by_inv"):
        specs += [
            dict(algorithm=algo, generator="controlled_inv", n=n, inv=inv, trials=1)
            for inv in (1 << 4, 1 << 8, 1 << 12)
        ]
    return specs


def _search_seq(tiny: bool) -> list[dict]:
    n, searches = (64, 100) if tiny else (1024, 10_000)
    return [
        dict(algorithm=algo, generator=gen, n=n, searches=searches, trials=1)
        for algo in ("exp_search", "offset_search", "randomized_search")
        for gen in ("uniform_ranks", "skewed_ranks")
    ]


# generator (and its disorder parameter) per algorithm on small-many; the
# rest use "random".  Search specs ignore `duplicates`.
_SMALL_GENERATOR = {
    "exp_search": ("uniform_ranks", {"searches": 100}),
    "offset_search": ("uniform_ranks", {"searches": 100}),
    "randomized_search": ("skewed_ranks", {"searches": 100}),
    "min_by_runs": ("controlled_runs", {"runs": 8}),
    "median_by_runs": ("controlled_runs", {"runs": 8}),
    "min_by_inv": ("controlled_inv", {"inv": 64}),
    "extract_sorted_run": ("controlled_inv", {"inv": 64}),
    "median_by_inv": ("controlled_inv", {"inv": 64}),
    "sort_by_inv": ("controlled_inv", {"inv": 64}),
    "median_two_runs": ("two_runs", {}),
}


def _small_many(tiny: bool) -> list[dict]:
    from fragility.harness import ALGORITHMS

    n, trials = (24, 2) if tiny else (100, 20)
    specs = []
    for algo in ALGORITHMS:
        gen, extra = _SMALL_GENERATOR.get(algo, ("random", {}))
        for dup in (False, True):
            specs.append(dict(algorithm=algo, generator=gen, n=n, trials=trials, duplicates=dup, **extra))
    return specs


WORKLOADS = {
    "select-large": (
        "select_kth at n=2^17 (C5): session/id/oracle construction and large compare_batch filters; scalar compare and schedules idle",
        _select_large,
    ),
    "adaptive-sweep": (
        "C8 runs/inv sweeps at n=2^15: cold Batcher schedule builds, the inversion-table decoder and scalar less in scans",
        _adaptive_sweep,
    ),
    "search-seq": (
        "three predecessor searches, 10^4 queries on n=1024: per-call scalar compare and search loops; harness and primitives idle",
        _search_seq,
    ),
    "small-many": (
        "all 15 algorithms at n=100, half with duplicates: many tiny sessions and batches on warm schedules, fixed cost per call",
        _small_many,
    ),
}

# The workloads BENCHMARK.json lists.  The host's slow spells last minutes
# and slow pure-Python code by up to 1.6x, large numpy work much less.  With
# all four listed, runs could last only 25 s, and search-seq's trials/s
# spread past its 0.25 bound between two sets of runs of the same code.
# Two workloads leave room for 55 s runs: select-large (large arrays) and
# small-many, which runs every algorithm, so every layer is still measured.
# search-seq and adaptive-sweep run on request.
LISTED = ("select-large", "small-many")

# (name, unit, better, bound).  Printed but not listed: failed_fraction is 0
# on every correct run; trial_p90_ms exists only where ten trials lie beyond
# it, which not every workload reaches in one run; comparisons_total is a
# fingerprint that must repeat exactly at a seed, and varies by up to a fifth
# between seeds (search-seq's skewed query centre), so a bound on it checks
# nothing.  On the 2-vCPU cloud VM the baseline was taken on, CPU speed
# shifts by up to 1.6x for minutes at a time, hence the widest bound on
# every time and runs of nearly a minute.
END_TO_END = (
    ("trials_per_s", "1/s", "higher", 0.25),
    ("trial_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SELF = "s/pass"
PER_LAYER = (
    ("ledger.new_session.s", _SELF, "lower"),
    ("ledger.ids.ns_per_element", "ns", "lower"),
    ("ledger.compare.calls", "count/pass", "lower"),
    ("ledger.compare.busy_s", _SELF, "lower"),
    ("ledger.compare.m_per_s", "M/s", "higher"),
    ("ledger.compare_batch.calls", "count/pass", "lower"),
    ("ledger.compare_batch.pairs", "count/pass", "lower"),
    ("ledger.compare_batch.busy_s", _SELF, "lower"),
    ("ledger.compare_batch.pairs_per_call", "count", "higher"),
    ("ledger.compare_batch.m_pairs_per_s", "M/s", "higher"),
    ("primitives.build_schedule.misses", "count/pass", "lower"),
    ("primitives.build_schedule.miss_s", _SELF, "lower"),
    ("primitives.build_schedule.max_wires", "count", "lower"),
    ("primitives.build_schedule.max_wires_s", "s", "lower"),
    ("primitives.schedule.hit_ratio", "ratio", "higher"),
    ("primitives.network_sort.calls", "count/pass", "lower"),
    ("primitives.network_sort.wires", "count/pass", "lower"),
    ("primitives.network_sort.self_s", _SELF, "lower"),
    ("primitives.mom_select.self_s", _SELF, "lower"),
    ("primitives.tournament_min.self_s", _SELF, "lower"),
    ("primitives.exponential_merge.self_s", _SELF, "lower"),
    ("primitives.small_median.self_s", _SELF, "lower"),
    ("search.exp_search.us_per_search", "us", "lower"),
    ("search.offset_search.us_per_search", "us", "lower"),
    ("search.randomized_search.us_per_search", "us", "lower"),
    ("search.compares_per_search", "count", "lower"),
    ("selection.select_kth.self_s", _SELF, "lower"),
    ("selection.reset.self_s", _SELF, "lower"),
    ("selection.filtered_fraction", "ratio", "lower"),
    ("adaptive.median_by_runs.self_s", _SELF, "lower"),
    ("adaptive.median_by_inv.self_s", _SELF, "lower"),
    ("adaptive.sort_by_inv.self_s", _SELF, "lower"),
    ("adaptive.extract_sorted_run.self_s", _SELF, "lower"),
    ("adaptive.count_runs.self_s", _SELF, "lower"),
    ("generators.gen_random.s", _SELF, "lower"),
    ("generators.gen_controlled_runs.s", _SELF, "lower"),
    ("generators.gen_controlled_inv.s", _SELF, "lower"),
    ("generators.gen_two_runs.s", _SELF, "lower"),
    ("generators.ns_per_element", "ns", "lower"),
    ("harness.trial.self_s", _SELF, "lower"),
    ("harness.to_json.s", _SELF, "lower"),
    ("harness.verify.s", _SELF, "lower"),
    ("cli.main.self_s", _SELF, "lower"),
    ("layer.cli.self_s", _SELF, "lower"),
    ("layer.harness.self_s", _SELF, "lower"),
    ("layer.generators.self_s", _SELF, "lower"),
    ("layer.ledger.self_s", _SELF, "lower"),
    ("layer.primitives.self_s", _SELF, "lower"),
    ("layer.search.self_s", _SELF, "lower"),
    ("layer.selection.self_s", _SELF, "lower"),
    ("layer.adaptive.self_s", _SELF, "lower"),
    ("trace.trial_wall_s", _SELF, "lower"),
    ("trace.untraced_trials_per_s", "1/s", "higher"),
    ("trace.traced_trials_per_s", "1/s", "higher"),
)
LAYERS = ("cli", "harness", "generators", "ledger", "primitives", "search", "selection", "adaptive")


def benchmark_config() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name][0]} for name in LISTED],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# set-up


def import_fragility():
    """Import `fragility` from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import fragility  # noqa: F401  (raises ImportError when src/ is missing)
    import fragility.cli

    if not os.path.abspath(fragility.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fragility imported from {fragility.__file__}, not {SRC}")
    return fragility


def write_specs(workload: str, seed: int, tiny: bool, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, spec in enumerate(WORKLOADS[workload][1](tiny)):
        path = os.path.join(directory, f"{i:02d}.spec")
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in {**spec, "seed": seed}.items():
                fh.write(f"{key}={value}\n")
        paths.append(path)
    return paths


def measure_setup(args, run_dir: str) -> list[float]:
    """Wall time from spawning a fresh interpreter until it has imported
    `fragility` and written the workload's specs, over several processes."""
    times = []
    for i in range(1 if args.smoke else SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               os.path.join(run_dir, f"probe{i}"), "--workload", args.workload,
               "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# the instrumented closed loop


class Hooks:
    """Always-on wrappers: per-trial wall time and the sessions each trial
    opened (to check the ledger invariant counts.sum() == 2*total)."""

    def __init__(self, fragility) -> None:
        harness = fragility.harness
        self.tracer = None
        self.trial_id = 0
        self.trial_times: list[float] = []
        self.trial_invariant: list[bool] = []
        self.session_total = 0
        self._sessions: list = []
        self.runners = list(harness.ALGORITHMS.values())
        self.caches = []
        for mod in fragility_modules():
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)) and value not in self.caches:
                    self.caches.append(value)
        original = fragility.ledger.new_session

        def new_session(values):
            ledger, ids = original(values)
            self._sessions.append(ledger)
            return ledger, ids

        rebind(original, new_session)
        for name, runner in harness.ALGORITHMS.items():
            harness.ALGORITHMS[name] = self._timed(runner)

    def _timed(self, runner):
        def trial(spec, rng):
            tracer = self.tracer
            if tracer is not None:
                tracer.trial = self.trial_id
                span = tracer.open("harness.trial")
            t0 = now()
            try:
                return runner(spec, rng)
            finally:
                self.trial_times.append(now() - t0)
                if tracer is not None:
                    tracer.close(span)
                    tracer.trial = -1
                self.trial_id += 1
                self.trial_invariant.append(
                    all(int(s.counts.sum()) == 2 * s.total for s in self._sessions)
                )
                self.session_total += sum(s.total for s in self._sessions)
                self._sessions.clear()

        return trial

    def clear_caches(self) -> None:
        for cached in self.caches:
            cached.cache_clear()


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    trial_times: list = field(default_factory=list)  # per spec: list of trial walls
    digests: list = field(default_factory=list)
    comparisons_total: int = 0
    rows: list = field(default_factory=list)
    report_verdicts: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _failed_trials(report_rows: list, verdict_text: str, invariant: list) -> tuple[set, list]:
    """Trials that failed, and the report-level verdicts (``trial=-``).

    A trial fails on its own row and verdicts.  Report-level verdicts bound a
    mean over all of a report's trials (select-expectations); they are
    statements about an expectation that the bound set calibrates on 150
    trials, so they are recorded beside the trial count instead of failing
    trials of a pass that holds five.
    """
    failed = {r["trial"] for r in report_rows if not r.get("correct", False)}
    failed |= {i for i, ok in enumerate(invariant) if not ok}
    report_level = []
    for line in verdict_text.splitlines():
        trial = line.split("trial=")[1].split()[0]
        if trial == "-":
            report_level.append(line)
        elif line.startswith("FAIL"):
            failed.add(int(trial))
    return failed, report_level


def run_pass(cli, hooks: Hooks, spec_paths: list, run_dir: str, reference: list | None) -> PassResult:
    res = PassResult()
    t_pass = now()
    for i, spec_path in enumerate(spec_paths):
        report_path = os.path.join(run_dir, f"{i:02d}.json")
        verdict_path = os.path.join(run_dir, f"{i:02d}.verdicts")
        trials = int(next(l for l in open(spec_path, encoding="utf-8") if l.startswith("trials=")).split("=")[1])
        res.attempted += trials
        hooks.clear_caches()
        hooks.trial_times, hooks.trial_invariant = [], []
        try:
            if cli.main(["run", "--spec", spec_path, "--out", report_path]) != 0:
                raise RuntimeError("fragility run exited non-zero")
            verify_rc = cli.main(["verify", "--report", report_path, "--out", verdict_path])
            if verify_rc not in (0, 1):
                raise RuntimeError(f"fragility verify exited {verify_rc}")
            with open(report_path, "rb") as fh:
                data = fh.read()
            with open(verdict_path, encoding="utf-8") as fh:
                verdicts = fh.read()
        except Exception:  # a raising trial is a failure, not the end of the run
            res.failed += trials
            res.problems.append(f"{spec_path}: raised\n{traceback.format_exc()}")
            res.trial_times.append([])
            continue
        rows = json.loads(data)["rows"]
        digest = hashlib.sha256(data).hexdigest()
        res.digests.append(digest)
        if reference is None:  # only the first pass's rows are read; keeping every
            res.rows += rows    # pass's would tie memory and GC work to the pass count
        res.comparisons_total += sum(int(r["total"]) for r in rows)
        failed, report_level = _failed_trials(rows, verdicts, hooks.trial_invariant)
        res.report_verdicts += report_level
        if (verify_rc == 1) != ("FAIL" in verdicts) or len(rows) != trials:
            failed = set(range(trials))
            res.problems.append(f"{spec_path}: verify exit {verify_rc} disagrees with its verdicts")
        if reference is not None and reference[i] != digest:
            failed = set(range(trials))
            res.problems.append(f"{spec_path}: report digest {digest} != first pass {reference[i]}")
        res.failed += len(failed)
        res.trial_times.append(hooks.trial_times)
    res.wall_s = now() - t_pass
    return res


def run_phase(cli, hooks, spec_paths, run_dir, seconds, reference):
    passes = []
    deadline = now() + seconds
    while True:
        passes.append(run_pass(cli, hooks, spec_paths, run_dir, reference))
        if reference is None:
            reference = passes[0].digests if len(passes[0].digests) == len(spec_paths) else None
        if now() >= deadline:
            return passes, reference


# ---------------------------------------------------------------------------
# metrics


def drift_probe() -> dict:
    """Host speed reference: rate of a fixed pure-Python loop, and load.

    Printed beside the metrics to make host drift visible; no metric is
    normalized by it."""
    best = float("inf")
    for _ in range(3):
        t0 = now()
        acc = 0
        for i in range(500_000):
            acc += i * i
        best = min(best, now() - t0)
    return {"ref_loop_mops": round(0.5 / best, 4), "loadavg_1m": os.getloadavg()[0]}


def trial_times(passes: list) -> list:
    """Wall time of each trial of a pass, averaged over the passes.

    Every pass repeats identical work, so the passes are replicates.  The
    host's speed comes in slow spells; a mean over replicates moves in
    proportion to the share of the run that was slow, where a median over
    all samples jumps between the two speeds.
    """
    positions = zip(*(p.trial_times for p in passes))
    return [statistics.fmean(ts) for spec in positions for ts in zip(*spec)]


def trials_per_s(passes: list) -> float:
    return sum(p.attempted - p.failed for p in passes) / sum(p.wall_s for p in passes)


def end_to_end_metrics(passes: list, setup_times: list) -> dict:
    times = trial_times(passes)
    return {
        "trials_per_s": trials_per_s(passes),
        "trial_p50_ms": 1000 * statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def p90_ms(times: list):
    """p90 with its sample count, or None when fewer than ten samples lie beyond it."""
    if len(times) < 10:
        return None
    p90 = statistics.quantiles(times, n=10)[8]
    return 1000 * p90 if sum(t > p90 for t in times) >= 10 else None


def layer_metrics(tracer, passes: list, untraced: list, session_total: int) -> dict:
    k = len(passes)
    self_s = tracer.self_times()
    by_name: dict[str, dict] = {}
    for span, own in zip(tracer.spans, self_s):
        agg = by_name.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self": 0.0, "size": 0, "leaf_calls": 0})
        agg["calls"] += 1
        agg["s"] += span[END] - span[START]
        agg["self"] += own
        agg["size"] += span[SIZE]
        agg["leaf_calls"] += span[LEAF_CALLS]
    get = lambda name, key: by_name.get(name, {}).get(key, 0)
    ratio = lambda a, b: a / b if b else 0.0
    m = {}
    m["ledger.new_session.s"] = get("ledger.new_session", "s") / k
    m["ledger.ids.ns_per_element"] = 1e9 * ratio(get("ledger.ids", "s"), get("ledger.new_session", "size"))
    pairs = get("ledger.compare_batch", "size")
    m["ledger.compare.calls"] = (session_total - pairs) / k
    m["ledger.compare.busy_s"] = tracer.compare_s / k
    m["ledger.compare.m_per_s"] = 1e-6 * ratio(tracer.compare_calls, tracer.compare_s)
    m["ledger.compare_batch.calls"] = get("ledger.compare_batch", "calls") / k
    m["ledger.compare_batch.pairs"] = pairs / k
    m["ledger.compare_batch.busy_s"] = get("ledger.compare_batch", "s") / k
    m["ledger.compare_batch.pairs_per_call"] = ratio(pairs, get("ledger.compare_batch", "calls"))
    m["ledger.compare_batch.m_pairs_per_s"] = 1e-6 * ratio(pairs, get("ledger.compare_batch", "s"))
    misses = [s for s in tracer.spans if s[NAME] == "primitives.build_schedule"]
    m["primitives.build_schedule.misses"] = len(misses) / k
    m["primitives.build_schedule.miss_s"] = sum(s[END] - s[START] for s in misses) / k
    widest = max(misses, key=lambda s: s[SIZE], default=None)
    m["primitives.build_schedule.max_wires"] = widest[SIZE] if widest else 0
    m["primitives.build_schedule.max_wires_s"] = widest[END] - widest[START] if widest else 0.0
    lookups = sum(1 for s in tracer.spans if s[NAME] == "primitives.network_sort" and s[SIZE] >= 2)
    m["primitives.schedule.hit_ratio"] = 1 - ratio(len(misses), lookups) if lookups else 0.0
    m["primitives.network_sort.calls"] = get("primitives.network_sort", "calls") / k
    m["primitives.network_sort.wires"] = get("primitives.network_sort", "size") / k
    for name in ("network_sort", "mom_select", "tournament_min", "exponential_merge", "small_median"):
        m[f"primitives.{name}.self_s"] = get(f"primitives.{name}", "self") / k
    searches = 0
    compares = 0
    for name in ("exp_search", "offset_search", "randomized_search"):
        calls = get(f"search.{name}", "calls")
        m[f"search.{name}.us_per_search"] = 1e6 * ratio(get(f"search.{name}", "s"), calls)
        searches += calls
        compares += get(f"search.{name}", "leaf_calls")
    m["search.compares_per_search"] = ratio(compares, searches)
    m["selection.select_kth.self_s"] = get("selection.select_kth", "self") / k
    m["selection.reset.self_s"] = get("selection.reset", "self") / k
    selected = [r for r in untraced[0].rows if "Sprime_size" in r]
    m["selection.filtered_fraction"] = ratio(sum(r["Sprime_size"] for r in selected), sum(r["n"] for r in selected))
    for name in ("median_by_runs", "median_by_inv", "sort_by_inv", "extract_sorted_run", "count_runs"):
        m[f"adaptive.{name}.self_s"] = get(f"adaptive.{name}", "self") / k
    gen_s = gen_n = 0
    for name, agg in by_name.items():
        if name.startswith("generators.gen_"):
            gen_s += agg["s"]
            gen_n += agg["size"]
    for name in ("gen_random", "gen_controlled_runs", "gen_controlled_inv", "gen_two_runs"):
        m[f"generators.{name}.s"] = get(f"generators.{name}", "s") / k
    m["generators.ns_per_element"] = 1e9 * ratio(gen_s, gen_n)
    m["harness.trial.self_s"] = get("harness.trial", "self") / k
    m["harness.to_json.s"] = get("harness.to_json", "s") / k
    m["harness.verify.s"] = get("harness.verify", "s") / k
    m["cli.main.self_s"] = get("cli.main", "self") / k
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            own for span, own in zip(tracer.spans, self_s) if span[NAME].split(".")[0] == layer
        ) / k
    m["layer.ledger.self_s"] += m["ledger.compare.busy_s"]
    m["trace.trial_wall_s"] = get("harness.trial", "s") / k
    m["trace.untraced_trials_per_s"] = trials_per_s(untraced)
    m["trace.traced_trials_per_s"] = trials_per_s(passes)
    # checks printed beside the metrics: self times partition the trial wall
    # time, and the direct compare count matches total - batch pairs
    in_trials = sum(own + s[LEAF_S] for s, own in zip(tracer.spans, self_s) if s[TRIAL] >= 0)
    checks = {
        "trial_self_fraction": ratio(in_trials, get("harness.trial", "s")),
        "cli_wall_fraction": ratio(get("cli.main", "s"), sum(p.wall_s for p in passes)),
        "compare_calls_counted": tracer.compare_calls / k,
    }
    return m, checks


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, to check the benchmark itself")
    p.add_argument("--write-config", action="store_true", help="write BENCHMARK.json and exit")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.write_config and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_config:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(benchmark_config(), indent=2) + "\n")
        return 0
    if args.setup_probe:
        import_fragility()
        write_specs(args.workload, args.seed, args.smoke, args.setup_probe)
        print(repr(time.time()))
        return 0

    run_dir = os.path.join(OUT, f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}")
    try:
        setup_times = measure_setup(args, run_dir)
        fragility = import_fragility()
    except (ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: cannot set up fragility from {SRC}: {exc}", file=sys.stderr)
        return 2
    cli = fragility.cli
    spec_paths = write_specs(args.workload, args.seed, args.smoke, os.path.join(run_dir, "specs"))
    hooks = Hooks(fragility)

    drift = {"before": drift_probe()}
    wall0, cpu0 = now(), time.process_time()
    phase_s = args.seconds / 2 if args.trace else args.seconds
    untraced, reference = run_phase(cli, hooks, spec_paths, run_dir, phase_s, None)
    passes = list(untraced)
    layers = None
    if args.trace:
        tracer = Tracer()
        tracer.install(hooks.runners)
        hooks.tracer = tracer
        hooks.session_total = 0
        traced, _ = run_phase(cli, hooks, spec_paths, run_dir, phase_s, reference)
        hooks.tracer = None
        passes += traced
        layers, checks = layer_metrics(tracer, traced, untraced, hooks.session_total)
        tracer.write(os.path.join(run_dir, "spans.csv"))
    drift["after"] = drift_probe()
    drift["cpu_per_wall"] = (time.process_time() - cpu0) / (now() - wall0)

    e2e = end_to_end_metrics(untraced, setup_times)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and reference is not None
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)

    label = f"{args.workload} seed={args.seed}"
    times = trial_times(untraced)
    p90 = p90_ms(times)
    print(f"# {label}: {len(passes)} passes, {attempted} trials attempted, {failed} failed "
          f"(failed_fraction {failed / attempted:.6g})")
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    for name, value in e2e.items():
        print(f"{label} {name} {value if isinstance(value, int) else format(value, '.6g')} {units[name]}")
    print(f"{label} trial_p90_ms "
          + (f"{p90:.6g} ms" if p90 is not None else "not reported (fewer than 10 trials beyond p90)")
          + f" [{len(times)} trials, each the mean of {len(untraced)} passes]")
    print(f"{label} setup_s samples " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"{label} fingerprint comparisons_total={passes[0].comparisons_total}")
    for i, digest in enumerate(reference or []):
        print(f"{label} fingerprint {os.path.basename(spec_paths[i])} sha256={digest}")
    report_level = passes[0].report_verdicts
    if report_level:
        print(f"{label} report-level verdicts (means over each report's trials, not per trial): "
              f"{sum(v.startswith('PASS') for v in report_level)} pass, "
              f"{sum(v.startswith('FAIL') for v in report_level)} fail")
        for v in report_level:
            if v.startswith("FAIL"):
                print(f"{label}   {v}")
    print(f"{label} drift ref_loop_mops={drift['before']['ref_loop_mops']}->{drift['after']['ref_loop_mops']} "
          f"loadavg_1m={drift['before']['loadavg_1m']:.2f}->{drift['after']['loadavg_1m']:.2f} "
          f"cpu_per_wall={drift['cpu_per_wall']:.3f}")
    if layers is not None:
        for name, value in layers.items():
            print(f"{label} {name} {value if isinstance(value, int) else format(value, '.6g')} {units[name]}")
        print(f"{label} trace: layer self times cover {checks['trial_self_fraction']:.4f} of traced trial wall, "
              f"cli.main covers {checks['cli_wall_fraction']:.4f} of traced pass wall; "
              f"scalar compares counted {checks['compare_calls_counted']:.0f}/pass vs total - batch pairs "
              f"{layers['ledger.compare.calls']:.0f}/pass; traced/untraced trials_per_s = "
              f"{layers['trace.traced_trials_per_s'] / layers['trace.untraced_trials_per_s']:.3f}")
    metrics = layers if args.trace else e2e
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "end_to_end": e2e,
                   "failed_fraction": failed / attempted, "comparisons_total": passes[0].comparisons_total,
                   "trial_p90_ms": p90, "trials_timed": len(times), "setup_samples": setup_times,
                   "digests": reference, "report_level_verdicts": report_level, "drift": drift,
                   "passes": len(passes), "trace_checks": checks if args.trace else None,
                   "pass_walls": [p.wall_s for p in passes]}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    # one client thread: numerical libraries read these when numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
