"""Seeded experiment runner, machine-readable reports, and bound verifiers.

An :class:`ExperimentSpec` names an algorithm, a generator, sizes and a seed;
:func:`run_experiment` executes each trial in a fresh ledger session with a
deterministic per-trial child seed and returns a :class:`Report` whose JSON
serialization is byte-identical across repeated runs.  :func:`verify`
evaluates a registered set of inequalities against a report and returns one
verdict (with numeric slack) per bound per row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import adaptive, calibration, generators
from .errors import ConfigError
from .ledger import ComparisonLedger, new_session
from .primitives import (
    ceil_log2,
    mom_select,
    network_depth_bound,
    network_sort,
    small_median,
    tournament_min,
)
from .search import (
    AMORTIZED_BUDGET_PER_DISTANCE,
    SearchTrace,
    build_offset_structure,
    exp_search,
    exp_search_query_budget,
    make_view,
    offset_search,
    randomized_search,
)
from .selection import PHASE_BACKEND, PHASE_FILTER, PHASE_PRE, BACKENDS, select_kth

if TYPE_CHECKING:  # hints only; numpy.typing costs ~1 ms of import time
    from numpy.typing import ArrayLike

# Child-seed scheme: trial i of an experiment with master seed s uses
# (s * GOLDEN + i) mod 2^64 as its own numpy PCG64 seed.  Documented so that
# reports are reproducible and trials are independently replayable.
GOLDEN = 0x9E3779B97F4A7C15


def child_seed(seed: int, trial: int) -> int:
    return (seed * GOLDEN + trial) % (1 << 64)


@dataclass
class ExperimentSpec:
    """Description of one experiment; all fields are plain scalars."""

    algorithm: str
    generator: str = "random"
    n: int = 1024
    trials: int = 10
    seed: int = 0
    runs: Optional[int] = None
    inv: Optional[int] = None
    split: Optional[int] = None
    k: Optional[int] = None
    searches: int = 1000
    epsilon: float = 0.01
    backend: str = "network"
    duplicates: bool = False

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.runs is not None and not (1 <= self.runs <= self.n):
            raise ConfigError(f"runs={self.runs} infeasible for n={self.n}")
        if self.inv is not None and not (0 <= self.inv <= self.n * (self.n - 1) // 2):
            raise ConfigError(f"inv={self.inv} infeasible for n={self.n}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentSpec":
        kwargs = {}
        fields = cls.__dataclass_fields__
        for key, raw in mapping.items():
            if key not in fields:
                raise ConfigError(f"unknown spec key {key!r}")
            typ = fields[key].type
            if isinstance(raw, str):
                if typ in ("int", "Optional[int]"):
                    raw = int(raw)
                elif typ == "float":
                    raw = float(raw)
                elif typ == "bool":
                    raw = raw.lower() in ("1", "true", "yes")
            kwargs[key] = raw
        if "algorithm" not in kwargs:
            raise ConfigError("spec needs an 'algorithm' key")
        spec = cls(**kwargs)
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        mapping: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)


# ---------------------------------------------------------------------------
# generators


def _gen(spec: ExperimentSpec, rng: np.random.Generator) -> list[int]:
    kind = spec.generator
    n = spec.n
    if kind == "random":
        vals = generators.gen_random(n, rng)
    elif kind == "controlled_runs":
        vals = generators.gen_controlled_runs(n, spec.runs if spec.runs else 2, rng)
    elif kind == "controlled_inv":
        vals = generators.gen_controlled_inv(n, spec.inv if spec.inv is not None else n, rng)
    elif kind == "adversarial_run_plus_one":
        vals = generators.gen_adversarial_run_plus_one(n, rng)
    elif kind == "two_runs":
        split = spec.split if spec.split is not None else n // 2
        vals = generators.gen_two_runs(n, split, rng)
    elif kind == "lower_bound":
        vals = generators.gen_lower_bound_instance(n, spec.k if spec.k is not None else n, rng)
    else:  # pragma: no cover - validate() rejects this earlier
        raise ConfigError(f"unknown generator {kind!r}")
    if spec.duplicates:
        vals = generators.with_duplicates(vals)
    return vals


GENERATORS = (
    "random",
    "controlled_runs",
    "controlled_inv",
    "adversarial_run_plus_one",
    "two_runs",
    "lower_bound",
    "uniform_ranks",
    "skewed_ranks",
)


def _oracle_order(vals: ArrayLike) -> np.ndarray:
    """Positions in the canonical (payload, position) order.

    Equals ``np.argsort(vals, kind="stable")`` for totally ordered payloads,
    from numpy's faster unstable sort.  When no two sorted neighbours are
    equal that order is the only correct one; otherwise each group of equal
    payloads is put back in position order by sorting the unique keys
    ``group * n + position`` and taking them mod n.
    """
    arr = np.asarray(vals)
    order = np.argsort(arr)
    ranked = arr[order]
    steps = ranked[1:] != ranked[:-1]
    if steps.all():
        return order
    n = arr.size
    keys = np.zeros(n, dtype=np.int64)
    np.cumsum(steps, out=keys[1:])  # group id of each sorted slot
    keys *= n
    keys += order
    keys.sort()
    keys %= n
    return keys


def _measured_disorder(vals: ArrayLike, order: Optional[np.ndarray] = None) -> tuple[int, int]:
    """(Runs, Inv) of the payloads under the canonical order; no ledger.

    ``order`` is ``_oracle_order(vals)``, passed in where the caller has it.
    """
    arr = np.asarray(vals)
    n = int(arr.size)
    if n < 2:
        return (1 if n else 0), 0
    # strict payload descents end runs; equal neighbours stay in the same run
    runs = 1 + int(np.count_nonzero(arr[1:] < arr[:-1]))
    if order is None:
        order = _oracle_order(arr)
    # the canonical ranks are the inverse permutation of the order, and a
    # permutation has as many inversions as its inverse
    return runs, adaptive.count_permutation_inversions(order)


# ---------------------------------------------------------------------------
# per-trial runners; each returns a JSON-safe row dict


def _base_row(ledger: ComparisonLedger, vals: ArrayLike) -> tuple[dict, np.ndarray]:
    """The row fields every ordering trial reports, and the canonical order.

    The payloads become one array, which the oracle order and the disorder
    measures share.
    """
    arr = np.asarray(vals)
    order = _oracle_order(arr)
    runs, inv = _measured_disorder(arr, order)
    counts = ledger.counts
    row = {
        "n": int(arr.size),
        "runs": runs,
        "inv": inv,
        "frag_max": int(counts.max()),
        "frag_mean": float(counts.mean()),
        "total": int(ledger.total),
    }
    return row, order


def _trial_min_by_runs(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    res = adaptive.min_by_runs(ledger, ids)
    row, order = _base_row(ledger, vals)
    row["correct"] = res == int(order[0])
    return row


def _trial_min_by_inv(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    info: dict = {}
    res = adaptive.min_by_inv(ledger, ids, info=info)
    row, order = _base_row(ledger, vals)
    row["correct"] = res == int(order[0])
    row["I_size"] = info["I_size"]
    return row


def _trial_extract(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    ext = adaptive.extract_sorted_run(ledger, ids)
    row, _ = _base_row(ledger, vals)
    keys = [ledger.sort_key(e) for e in ext.R]
    row["correct"] = keys == sorted(keys) and len(ext.R) + len(ext.I) == len(vals)
    row["I_size"] = len(ext.I)
    return row


def _trial_median(algo):
    def run(spec, rng):
        vals = _gen(spec, rng)
        ledger, ids = new_session(vals)
        res = algo(ledger, ids)
        row, order = _base_row(ledger, vals)
        row["correct"] = res == int(order[(len(vals) - 1) // 2])
        return row

    return run


def _trial_sort_by_inv(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    out = adaptive.sort_by_inv(ledger, ids)
    row, order = _base_row(ledger, vals)
    row["correct"] = out == order.tolist()
    return row


def _trial_network_sort(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    out = network_sort(ledger, ids)
    row, order = _base_row(ledger, vals)
    row["correct"] = out == order.tolist()
    row["depth_bound"] = network_depth_bound(len(vals))
    return row


def _trial_tournament(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    res = tournament_min(ledger, ids)
    row, order = _base_row(ledger, vals)
    row["correct"] = res == int(order[0])
    return row


def _trial_mom_select(spec, rng):
    vals = _gen(spec, rng)
    k = spec.k if spec.k is not None else int(rng.integers(0, len(vals)))
    ledger, ids = new_session(vals)
    res = mom_select(ledger, ids, k)
    row, order = _base_row(ledger, vals)
    row["k"] = k
    row["correct"] = res == int(order[k])
    return row


def _trial_small_median(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    res = small_median(ledger, ids)
    row, order = _base_row(ledger, vals)
    row["correct"] = res == int(order[(len(vals) - 1) // 2])
    row["depth_bound"] = network_depth_bound(len(vals))
    return row


def _trial_median_two_runs(spec, rng):
    vals = _gen(spec, rng)
    ledger, ids = new_session(vals)
    # a strict payload descent ends a run (equal payloads ascend by index)
    arr = np.asarray(vals)
    descents = np.flatnonzero(arr[1:] < arr[:-1]) + 1
    if descents.size > 1:
        raise ConfigError("median_two_runs needs a two-run input (use two_runs)")
    boundary = int(descents[0]) if descents.size else len(vals)
    res = adaptive.median_two_runs(ledger, ids[:boundary], ids[boundary:])
    row, order = _base_row(ledger, arr)
    row["correct"] = res == int(order[(len(vals) - 1) // 2])
    return row


def _trial_select_kth(spec, rng):
    vals = _gen(spec, rng)
    n = len(vals)
    k = spec.k if spec.k is not None else int(rng.integers(0, n))
    ledger, ids = new_session(vals)
    info: dict = {}
    res = select_kth(
        ledger,
        ids,
        k,
        rng,
        backend=BACKENDS[spec.backend],
        epsilon=spec.epsilon,
        info=info,
    )
    row, order = _base_row(ledger, vals)
    row["k"] = k
    row["epsilon"] = spec.epsilon
    row["correct"] = res == int(order[k])
    row["branch"] = info["branch"]
    row["C_size"] = info["candidate_size"]
    row["Sprime_size"] = info["filtered_size"]
    row["fragility_of_selected_pre"] = int(ledger.phase_counts(PHASE_PRE)[res])
    row["fragility_of_selected_filter"] = int(ledger.phase_counts(PHASE_FILTER)[res])
    row["fragility_of_selected_backend"] = int(ledger.phase_counts(PHASE_BACKEND)[res])
    return row


def _search_ranks(spec, rng) -> np.ndarray:
    n, m = spec.n, spec.searches
    if spec.generator in ("random", "uniform_ranks"):
        return rng.integers(0, n + 1, size=m)
    if spec.generator == "skewed_ranks":
        center = int(rng.integers(0, n + 1))
        offsets = rng.geometric(0.02, size=m) * rng.choice([-1, 1], size=m)
        return np.clip(center + offsets, 0, n)
    raise ConfigError(f"generator {spec.generator!r} unsupported for searches")


def _search_session(spec, rng):
    n = spec.n
    ranks = _search_ranks(spec, rng)
    values = [2 * i for i in range(n)] + [2 * int(r) - 1 for r in ranks]
    ledger, ids = new_session(values)
    view = make_view(ids[:n])
    return ledger, view, ids[n:], ranks


def _trial_exp_search(spec, rng):
    ledger, view, queries, ranks = _search_session(spec, rng)
    max_violation = -math.inf
    worst_k = None
    ok = True
    for q, k in zip(queries, ranks):
        res = exp_search(ledger, view, q)
        ok = ok and res.rank == int(k)
        violation = int(ledger.counts[q]) - exp_search_query_budget(int(k))
        if violation > max_violation:
            max_violation, worst_k = violation, int(k)
    arr = ledger.counts[: view.n]
    return {
        "n": view.n,
        "searches": len(queries),
        "correct": bool(ok),
        "max_violation": int(max_violation),
        "worst_k": worst_k,
        "frag_max": int(arr.max()),
        "frag_mean": float(arr.mean()),
        "total": int(ledger.total),
    }


def budget_per_element(trace: SearchTrace) -> np.ndarray:
    """Vectorized amortized budget ceil(log2 n_padded) + sum 112/d per y."""
    n = trace.n
    budget = np.full(n, float(ceil_log2(trace.n_padded)))
    pos = np.arange(n)
    for rec in trace.searches:
        p = -1 if rec["result"] is None else rec["result"]
        d = np.where(pos <= p, p - pos + 1, np.maximum(1, pos - p))
        budget += AMORTIZED_BUDGET_PER_DISTANCE / d
    return budget


def _trial_offset_search(spec, rng):
    ledger, view, queries, ranks = _search_session(spec, rng)
    structure = build_offset_structure(view)
    trace = SearchTrace(n=view.n, n_padded=structure.n_padded)
    ok = True
    for q, k in zip(queries, ranks):
        res = offset_search(ledger, structure, q, trace=trace)
        ok = ok and res.rank == int(k)
    counts = np.zeros(view.n)
    for y, c in trace.counts.items():
        counts[y] = c
    slack = budget_per_element(trace) - counts
    rank_repeats = max(
        (max((rec["ranks"].count(r) for r in set(rec["ranks"])), default=0)
         for rec in trace.searches if rec.get("ranks")),
        default=0,
    )
    arr = ledger.counts[: view.n]
    return {
        "n": view.n,
        "searches": len(queries),
        "correct": bool(ok),
        "min_slack": float(slack.min()),
        "violations": int((slack < 0).sum()),
        "max_rank_repeat": int(rank_repeats),
        "frag_max": int(arr.max()),
        "frag_mean": float(arr.mean()),
        "total": int(ledger.total),
    }


def _trial_randomized_search(spec, rng):
    ledger, view, queries, ranks = _search_session(spec, rng)
    ok = True
    for q, k in zip(queries, ranks):
        res = randomized_search(ledger, view, q, rng)
        ok = ok and res.rank == int(k)
    arr = ledger.counts[: view.n]
    return {
        "n": view.n,
        "searches": len(queries),
        "correct": bool(ok),
        "frag_max": int(arr.max()),
        "frag_mean": float(arr.mean()),
        "mean_budget": calibration.randomized_mean_budget(view.n, len(queries)),
        "total": int(ledger.total),
    }


ALGORITHMS: dict[str, Callable] = {
    "exp_search": _trial_exp_search,
    "offset_search": _trial_offset_search,
    "randomized_search": _trial_randomized_search,
    "select_kth": _trial_select_kth,
    "min_by_runs": _trial_min_by_runs,
    "min_by_inv": _trial_min_by_inv,
    "extract_sorted_run": _trial_extract,
    "median_by_runs": _trial_median(adaptive.median_by_runs),
    "median_by_inv": _trial_median(adaptive.median_by_inv),
    "median_two_runs": _trial_median_two_runs,
    "sort_by_inv": _trial_sort_by_inv,
    "network_sort": _trial_network_sort,
    "tournament_min": _trial_tournament,
    "mom_select": _trial_mom_select,
    "small_median": _trial_small_median,
}


# ---------------------------------------------------------------------------
# report


@dataclass
class Report:
    spec: dict
    rows: list[dict]
    aggregates: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"spec": self.spec, "rows": self.rows, "aggregates": self.aggregates}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def to_jsonl(self) -> str:
        lines = [json.dumps({"spec": self.spec}, sort_keys=True, separators=(",", ":"))]
        for row in self.rows:
            lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
        lines.append(
            json.dumps({"aggregates": self.aggregates}, sort_keys=True, separators=(",", ":"))
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        keys = sorted({k for row in self.rows for k in row})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for row in self.rows:
            writer.writerow([row.get(k, "") for k in keys])
        return buf.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "Report":
        payload = json.loads(text)
        return cls(
            spec=payload["spec"], rows=payload["rows"], aggregates=payload.get("aggregates", {})
        )


def _aggregate(rows: list[dict]) -> dict:
    maxima = sorted(row["frag_max"] for row in rows)
    qt = lambda q: maxima[min(len(maxima) - 1, int(q * len(maxima)))]
    agg = {
        "trials": len(rows),
        "frag_max": maxima[-1],
        "frag_max_median": qt(0.5),
        "frag_max_p90": qt(0.9),
        "frag_mean": sum(row["frag_mean"] for row in rows) / len(rows),
    }
    if all("correct" in row for row in rows):
        agg["correct_fraction"] = sum(bool(row["correct"]) for row in rows) / len(rows)
    return agg


def run_experiment(spec: ExperimentSpec) -> Report:
    """Run all trials; deterministic given the spec (fresh session per trial)."""
    spec.validate()
    runner = ALGORITHMS[spec.algorithm]
    rows = []
    for trial in range(spec.trials):
        seed = child_seed(spec.seed, trial)
        rng = np.random.default_rng(seed)
        row = runner(spec, rng)
        row["trial"] = trial
        row["seed"] = seed
        rows.append(row)
    return Report(spec=spec.to_dict(), rows=rows, aggregates=_aggregate(rows))


# ---------------------------------------------------------------------------
# bound verification


def _verdict(bound: str, trial, passed: bool, slack: float) -> dict:
    return {"bound": bound, "trial": trial, "passed": bool(passed), "slack": float(slack)}


def _check_exp(report):
    return [
        _verdict("query-fragility-budget", row["trial"], row["max_violation"] <= 0, -row["max_violation"])
        for row in report.rows
    ]


def _check_offset(report):
    out = []
    for row in report.rows:
        out.append(_verdict("amortized-112-over-d", row["trial"], row["min_slack"] >= 0, row["min_slack"]))
        out.append(_verdict("rank-recursions-at-most-7", row["trial"], row["max_rank_repeat"] <= 7, 7 - row["max_rank_repeat"]))
    return out


def _check_randomized(report):
    return [
        _verdict("mean-fragility-budget", row["trial"], row["frag_mean"] <= row["mean_budget"], row["mean_budget"] - row["frag_mean"])
        for row in report.rows
    ]


def _check_min_runs(report):
    out = []
    for row in report.rows:
        bound = 2 + ceil_log2(max(1, row["runs"]))
        out.append(_verdict("min-runs-fragility", row["trial"], row["frag_max"] <= bound, bound - row["frag_max"]))
    return out


def _check_extract(report):
    out = []
    for row in report.rows:
        out.append(_verdict("extract-fragility-4", row["trial"], row["frag_max"] <= 4, 4 - row["frag_max"]))
        out.append(_verdict("extract-I-at-most-2Inv", row["trial"], row["I_size"] <= 2 * row["inv"], 2 * row["inv"] - row["I_size"]))
    return out


def _check_min_inv(report):
    out = []
    for row in report.rows:
        bound = 4 + ceil_log2(row["I_size"] + 1) + 1
        out.append(_verdict("min-inv-fragility", row["trial"], row["frag_max"] <= bound, bound - row["frag_max"]))
    return out


def _check_correct(report):
    return [
        _verdict("matches-oracle", row["trial"], bool(row["correct"]), 0.0 if row["correct"] else -1.0)
        for row in report.rows
    ]


def _check_median_runs(report):
    out = _check_correct(report)
    for row in report.rows:
        env = calibration.median_runs_envelope(row["runs"], row["n"])
        out.append(_verdict("median-runs-envelope", row["trial"], row["frag_max"] <= env, env - row["frag_max"]))
    return out


def _check_median_inv(report):
    out = _check_correct(report)
    for row in report.rows:
        env = calibration.median_inv_envelope(row["inv"])
        out.append(_verdict("median-inv-envelope", row["trial"], row["frag_max"] <= env, env - row["frag_max"]))
    return out


def _check_sort_inv(report):
    out = _check_correct(report)
    for row in report.rows:
        env = calibration.sort_inv_envelope(row["inv"])
        out.append(_verdict("sort-inv-envelope", row["trial"], row["frag_max"] <= env, env - row["frag_max"]))
    return out


def _check_network(report):
    out = _check_correct(report)
    for row in report.rows:
        bound = row["depth_bound"]
        out.append(_verdict("network-depth", row["trial"], row["frag_max"] <= bound, bound - row["frag_max"]))
    return out


def _check_tournament(report):
    out = _check_correct(report)
    for row in report.rows:
        bound = ceil_log2(row["n"])
        out.append(_verdict("tournament-rounds", row["trial"], row["frag_max"] <= bound, bound - row["frag_max"]))
    return out


def _check_two_run_median(report):
    out = _check_correct(report)
    for row in report.rows:
        bound = calibration.MEDIAN_TWO_RUNS_MAX
        out.append(_verdict("two-run-median-constant", row["trial"], row["frag_max"] <= bound, bound - row["frag_max"]))
    return out


def _check_select(report):
    out = _check_correct(report)
    sampled = [row for row in report.rows if row.get("branch") == "sampled"]
    if sampled:
        k = sampled[0]["k"]
        mean_sp = sum(row["Sprime_size"] for row in sampled) / len(sampled)
        bound = 1.2 * k * (k + 1)
        out.append(_verdict("mean-filtered-size", None, mean_sp <= bound, bound - mean_sp))
        mean_pre = sum(row["fragility_of_selected_pre"] for row in sampled) / len(sampled)
        out.append(_verdict("mean-selected-pre-fragility", None, mean_pre <= 8, 8 - mean_pre))
    return out


BOUND_SETS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "exp-search-rank": (("exp_search",), _check_exp),
    "offset-amortized": (("offset_search",), _check_offset),
    "randomized-mean": (("randomized_search",), _check_randomized),
    "min-runs": (("min_by_runs",), _check_min_runs),
    "extract-structure": (("extract_sorted_run",), _check_extract),
    "min-inv": (("min_by_inv",), _check_min_inv),
    "median-runs-envelope": (("median_by_runs",), _check_median_runs),
    "median-inv-envelope": (("median_by_inv",), _check_median_inv),
    "sort-inv-envelope": (("sort_by_inv",), _check_sort_inv),
    "network-depth": (("network_sort", "small_median"), _check_network),
    "tournament": (("tournament_min",), _check_tournament),
    "two-run-median": (("median_two_runs",), _check_two_run_median),
    "select-expectations": (("select_kth",), _check_select),
    "oracle-agreement": (tuple(ALGORITHMS), _check_correct),
}


def verify(report: Report, bound_set: str) -> tuple[bool, list[dict]]:
    """Evaluate every inequality of the named bound set against the report."""
    if bound_set not in BOUND_SETS:
        raise ConfigError(f"unknown bound set {bound_set!r}")
    allowed, checker = BOUND_SETS[bound_set]
    algorithm = report.spec.get("algorithm")
    if algorithm not in allowed:
        raise ConfigError(f"bound set {bound_set!r} does not apply to {algorithm!r}")
    verdicts = checker(report)
    return all(v["passed"] for v in verdicts), verdicts


def default_bound_sets(algorithm: str) -> list[str]:
    return [name for name, (allowed, _) in sorted(BOUND_SETS.items()) if algorithm in allowed]


def aggregate_reports(reports: list[Report]) -> dict:
    """Cross-run summary for the `report` subcommand."""
    summary = []
    for rep in reports:
        summary.append(
            {
                "algorithm": rep.spec.get("algorithm"),
                "generator": rep.spec.get("generator"),
                "n": rep.spec.get("n"),
                "trials": len(rep.rows),
                **rep.aggregates,
            }
        )
    return {"runs": summary}
