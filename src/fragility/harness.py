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
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import adaptive, calibration, generators
from .errors import ConfigError, CountMismatch
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
    budget_per_element,
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


# sequence generator -> (the spec field that sets its target, its default at size n)
_TARGETS = {"controlled_runs": ("runs", lambda n: 2), "controlled_inv": ("inv", lambda n: n),
            "two_runs": ("split", lambda n: n // 2), "lower_bound": ("k", lambda n: n)}
# the spellings of a bool that a spec file may use
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# a spec field's type -> how a string of that type reads
_READERS = {"int": int, "Optional[int]": int, "float": float, "bool": lambda s: _BOOLS[s.lower()]}


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
        fits = RANK_GENERATORS if self.algorithm in SEARCHES else SEQUENCE_GENERATORS
        if self.generator not in fits:
            raise ConfigError(
                f"algorithm {self.algorithm!r} takes generator {' | '.join(fits)},"
                f" not {self.generator!r}"
            )
        if self.algorithm in SEARCHES and self.searches < 1:
            raise ConfigError(f"searches={self.searches} must be >= 1 for {self.algorithm!r}")
        # select_kth samples only when k <= n^epsilon, so a negative or NaN
        # epsilon would silently send every trial to the direct branch
        if not 0 < self.epsilon <= 1:
            raise ConfigError(f"epsilon={self.epsilon} must be in (0, 1]")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        n = self.n
        if self.algorithm in ("select_kth", "mom_select") and not 0 <= (self.k or 0) < n:
            raise ConfigError(f"k={self.k} outside [0, {n}) for {self.algorithm!r}")
        # the targets that are set, and the generator's own at its default
        feasible = {"runs": (1, n), "inv": (0, n * (n - 1) // 2), "split": (0, n)}
        if self.generator == "lower_bound":
            feasible["k"] = (0, n * n)
        for key, (low, high) in feasible.items():
            value = self.target(key)
            if value is not None and not low <= value <= high:
                raise ConfigError(f"{key}={value} infeasible for n={n}")
        if self.generator == "adversarial_run_plus_one" and self.n < 2:
            raise ConfigError(f"generator 'adversarial_run_plus_one' needs n >= 2, not {self.n}")
        if self.algorithm == "median_two_runs" and not _two_runs_at_every_seed(self):
            raise ConfigError(f"median_two_runs needs a two-run input: generator {self.generator!r}"
                              f" can give more runs at n={self.n} (use two_runs)")

    def target(self, key: str) -> Optional[int]:
        """Field ``key`` as the sequence generators read it: unset, the
        default in :data:`_TARGETS` where it is the generator's target."""
        field, default = _TARGETS.get(self.generator, (None, None))
        value = getattr(self, key)
        return default(self.n) if value is None and key == field else value

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentSpec":
        kwargs = {}
        fields = cls.__dataclass_fields__
        for key, raw in mapping.items():
            if key not in fields:
                raise ConfigError(f"unknown spec key {key!r}")
            typ = fields[key].type
            if isinstance(raw, str) and typ in _READERS:
                try:
                    raw = _READERS[typ](raw)
                except (KeyError, ValueError):
                    raise ConfigError(f"spec key {key!r}: cannot read {raw!r} as {typ}") from None
            kwargs[key] = raw
        if "algorithm" not in kwargs:
            raise ConfigError("spec needs an 'algorithm' key")
        spec = cls(**kwargs)
        spec.validate()
        return spec


def _two_runs_at_every_seed(spec: ExperimentSpec) -> bool:
    """Whether ``spec``'s generator gives at most two runs at every seed, as
    ``median_two_runs`` needs.  Three runs take two descents: four distinct
    payloads, or three strictly descending ones."""
    n = spec.n
    # duplicates only merge runs; three paired payloads cannot descend twice
    if n <= (3 if spec.duplicates else 2) or spec.generator in ("two_runs", "adversarial_run_plus_one"):
        return True
    if spec.generator == "controlled_runs":
        return spec.target("runs") <= 2
    if spec.generator == "controlled_inv":
        return spec.target("inv") <= (2 if n == 3 else 1)
    if spec.generator == "lower_bound":  # a shuffled prefix of isqrt(k) values
        return math.isqrt(spec.target("k")) <= (3 if spec.duplicates else 2)
    return False


def read_spec_file(path: str) -> dict[str, str]:
    """The ``key = value`` lines of a spec file, as strings; blank lines and
    ``#`` comments are skipped, and a key may appear only once."""
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            first_line[key] = lineno
            mapping[key] = value.strip()
    return mapping


# ---------------------------------------------------------------------------
# generators
#
# Table entries reach the input generators and the algorithms at call time,
# through a module attribute or a harness global, and never hold them as
# function objects, so that a wrapper rebound to those names sees every trial.

# name -> call(spec, rng) -> the payload array; an unset target takes its default
SEQUENCE_GENERATORS: dict[str, Callable] = {
    "random": lambda s, rng: generators.gen_random(s.n, rng),
    "controlled_runs": lambda s, rng: generators.gen_controlled_runs(s.n, s.target("runs"), rng),
    "controlled_inv": lambda s, rng: generators.gen_controlled_inv(s.n, s.target("inv"), rng),
    "adversarial_run_plus_one": lambda s, rng: generators.gen_adversarial_run_plus_one(s.n, rng),
    "two_runs": lambda s, rng: generators.gen_two_runs(s.n, s.target("split"), rng),
    "lower_bound": lambda s, rng: generators.gen_lower_bound_instance(s.n, s.target("k"), rng),
}


def generate(spec: ExperimentSpec, rng: np.random.Generator) -> np.ndarray:
    """A trial's one payload array: ``spec``'s sequence generator's output,
    collapsed to pairs of ties when ``spec.duplicates`` is set."""
    vals = SEQUENCE_GENERATORS[spec.generator](spec, rng)
    return generators.with_duplicates(vals) if spec.duplicates else vals


def _uniform_ranks(spec, rng):
    return rng.integers(0, spec.n + 1, size=spec.searches)


def _skewed_ranks(spec, rng):
    n, m = spec.n, spec.searches
    center = int(rng.integers(0, n + 1))
    offsets = rng.geometric(0.02, size=m) * rng.choice([-1, 1], size=m)
    return np.clip(center + offsets, 0, n)


# name -> call(spec, rng) -> the ranks in 0..n of ``spec.searches`` queries
RANK_GENERATORS: dict[str, Callable] = {
    "random": _uniform_ranks,
    "uniform_ranks": _uniform_ranks,
    "skewed_ranks": _skewed_ranks,
}


# ---------------------------------------------------------------------------
# the oracle and the trial runners; each runner returns a JSON-safe row dict


def _oracle_order(vals: ArrayLike) -> np.ndarray:
    """Positions in the canonical (payload, position) order:
    ``np.argsort(vals, kind="stable")`` for totally ordered payloads.

    An integer array that is a permutation of 0..n-1, as every permutation
    generator emits, needs no sort: its order is the inverse permutation,
    built by one scatter.  The scatter writes every slot exactly when the
    payloads lie in [0, n-1] without repeats.
    """
    arr = np.asarray(vals)
    n = arr.size
    if arr.dtype.kind in "iu" and n and arr.min() == 0 and arr.max() == n - 1:
        order = np.full(n, -1, dtype=np.intp)
        order[arr] = np.arange(n)
        if order.min() >= 0:
            return order
    return np.argsort(arr, kind="stable")


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


def _oracle(arr: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The canonical order and (Runs, Inv) of a trial's payload array."""
    order = _oracle_order(arr)
    return (order, *_measured_disorder(arr, order))


# Trials of at least this many elements run the oracle on a worker thread
# while the algorithm runs.  Timed one process per mode through cli.main, so
# with its heap policy (2 vCPU), a select_kth trial took 1.30-1.38 ms inline
# and 1.57-2.09 overlapped at 8192, 3.5-4.4 and 3.2-4.7 at 2^15 (overlap
# faster in 3 of 6 paired rounds), 6.6-7.5 and 5.5-6.3 at 2^16.  One process
# timing both modes reads the overlap slower.  Only array-native algorithms,
# whose numpy calls release the GIL, run beside the thread.
OVERLAP_MIN_N = 1 << 16


def _load(ledger: ComparisonLedger, n: int) -> dict:
    """The row's load fields over the ledger's first ``n`` counts; raises
    :class:`CountMismatch` unless all its counts sum to twice its total, as
    each comparison counts once for each of its two elements."""
    counts = ledger.counts
    doubled = int(counts.sum())
    if doubled != 2 * ledger.total:
        raise CountMismatch(
            f"the per-element counts sum to {doubled}, not 2 * total = {2 * ledger.total}"
        )
    counts = counts[:n]
    return {
        "frag_max": int(counts.max()),
        "frag_mean": float(counts.mean()),
        "total": int(ledger.total),
    }


# the process's one oracle worker, made on the first overlapped trial
_oracle_pool = None


def _ordering_runner(call, check, overlap=False):
    """generate -> session -> ``call`` and the oracle -> row -> ``check``.

    The trial's one payload array goes to the session, to ``call`` and to
    the oracle.  ``call(ledger, ids, vals, extra, spec, rng)`` runs the
    algorithm and puts any row fields of its own into ``extra``.  The row's
    ``correct`` is ``check(result, order, row)``: whether the result agrees
    with ``order``, the canonical order that the oracle computes from the
    payloads alone.

    The oracle reads only the payload array, never the ledger or the rng, so
    where ``overlap`` is set, from :data:`OVERLAP_MIN_N` elements on, it runs
    on the process's one oracle worker, a one-thread ``ThreadPoolExecutor``,
    while ``call`` runs here.  It spends most of its time in numpy calls that
    release the GIL, as ``select_kth`` does.  The trial waits for its oracle
    also when ``call`` raises, whose error then propagates, not the
    oracle's; ``result()`` raises the oracle's own exception here, and the
    row is the same either way.  One worker serves every trial: with a new
    thread per trial, a second select_kth run at 2^17 in one process took
    300-345 minor page faults per trial in 2 of 20 processes, and under 1
    in each of 20 with one worker.
    """

    def run(spec, rng):
        global _oracle_pool
        vals = generate(spec, rng)
        ledger, ids = new_session(vals)
        extra: dict = {}
        if not overlap or vals.size < OVERLAP_MIN_N:
            res = call(ledger, ids, vals, extra, spec, rng)
            order, runs, inv = _oracle(vals)
        else:
            # imported here: concurrent.futures.thread imports logging, ~9 ms
            # that every start-up would pay for trials that few runs take
            from concurrent.futures import ThreadPoolExecutor, wait

            if _oracle_pool is None:
                _oracle_pool = ThreadPoolExecutor(1, thread_name_prefix="fragility-oracle")
            oracle = _oracle_pool.submit(_oracle, vals)
            try:
                res = call(ledger, ids, vals, extra, spec, rng)
            finally:
                wait((oracle,))
            order, runs, inv = oracle.result()
        row = {"n": int(vals.size), "runs": runs, "inv": inv, **_load(ledger, vals.size)}
        row.update(extra)
        row["correct"] = check(res, order, row)
        return row

    return run


# the checks of :func:`_ordering_runner`
_least = lambda res, order, row: res == int(order[0])
_median = lambda res, order, row: res == int(order[(row["n"] - 1) // 2])
_kth = lambda res, order, row: res == int(order[row["k"]])
_sorted = lambda res, order, row: res == order.tolist()


def _ascending_run(R, order, row) -> bool:
    """R and I split the input, and R's canonical ranks strictly ascend."""
    rank = np.empty_like(order)
    rank[order] = np.arange(row["n"])
    return len(R) + row["I_size"] == row["n"] and bool(np.all(np.diff(rank[R]) > 0))


def _draw_k(spec, rng, extra, n) -> int:
    """The spec's k, else a uniform one in 0..n-1; reported as the row's k."""
    k = spec.k if spec.k is not None else int(rng.integers(0, n))
    extra["k"] = k
    return k


def _select_kth(ledger, ids, vals, extra, spec, rng):
    k = _draw_k(spec, rng, extra, len(ids))
    info: dict = {}
    res = select_kth(
        ledger,
        np.arange(len(ids)),  # the ids as an index array
        k,
        rng,
        backend=BACKENDS[spec.backend],
        epsilon=spec.epsilon,
        info=info,
    )
    extra.update(
        epsilon=spec.epsilon,
        branch=info["branch"],
        C_size=info["candidate_size"],
        Sprime_size=info["filtered_size"],
        fragility_of_selected_pre=int(ledger.phase_counts(PHASE_PRE)[res]),
        fragility_of_selected_filter=int(ledger.phase_counts(PHASE_FILTER)[res]),
        fragility_of_selected_backend=int(ledger.phase_counts(PHASE_BACKEND)[res]),
    )
    return res


def _extract(ledger, ids, vals, extra, *_):
    R, I = adaptive.extract_sorted_run(ledger, ids)
    extra["I_size"] = len(I)
    return R


def _median_two_runs(ledger, ids, vals, *_):
    # a strict payload descent ends a run (equal payloads ascend by index)
    descents = np.flatnonzero(vals[1:] < vals[:-1]) + 1
    if descents.size > 1:
        raise ConfigError("median_two_runs needs a two-run input (use two_runs)")
    boundary = int(descents[0]) if descents.size else len(ids)
    return adaptive.median_two_runs(ledger, ids[:boundary], ids[boundary:])


def _network_sort(ledger, ids, vals, extra, *_):
    extra["depth_bound"] = network_depth_bound(len(ids))
    return network_sort(ledger, ids)


def _small_median(ledger, ids, vals, extra, *_):
    extra["depth_bound"] = network_depth_bound(len(ids))
    return small_median(ledger, ids)


def _search_runner(search):
    """A session of the n array payloads 0, 2, .., 2n-2 and one odd payload
    per query rank.  ``search(ledger, view, queries, ranks, rng)`` answers the
    queries in order and returns the ranks it found and its own row fields."""

    def run(spec, rng):
        n = spec.n
        ranks = RANK_GENERATORS[spec.generator](spec, rng)
        # a list session: the searches compare one pair at a time, and a
        # list item reads faster than a memoryview's (~0.30 against ~0.35 us
        # per compare)
        values = [2 * i for i in range(n)] + [2 * int(r) - 1 for r in ranks]
        ledger, ids = new_session(values)
        found, row = search(ledger, make_view(ids[:n]), ids[n:], ranks, rng)
        row.update(
            n=n,
            searches=len(ranks),
            correct=found == ranks.tolist(),
            **_load(ledger, n),
        )
        return row

    return run


def _exp_search(ledger, view, queries, ranks, rng):
    found = [exp_search(ledger, view, q) for q in queries]
    counts = ledger.counts
    # a query takes part only in its own search
    violations = [int(counts[q]) - exp_search_query_budget(int(k)) for q, k in zip(queries, ranks)]
    worst = int(np.argmax(violations))
    return found, {"max_violation": violations[worst], "worst_k": int(ranks[worst])}


def _offset_search(ledger, view, queries, ranks, rng):
    offsets = build_offset_structure(view)
    found, rank_repeats = [], 0
    for q in queries:
        used: list[int] = []
        found.append(offset_search(ledger, view, offsets, q, used))
        rank_repeats = max(rank_repeats, max(map(used.count, used), default=0))
    slack = budget_per_element(offsets, found) - ledger.counts[: len(view)]
    return found, {
        "min_slack": float(slack.min()),
        "violations": int((slack < 0).sum()),
        "max_rank_repeat": rank_repeats,
    }


def _randomized_search(ledger, view, queries, ranks, rng):
    found = [randomized_search(ledger, view, q, rng) for q in queries]
    return found, {"mean_budget": calibration.randomized_mean_budget(len(view), len(queries))}


SEARCHES: dict[str, Callable] = {
    "exp_search": _search_runner(_exp_search),
    "offset_search": _search_runner(_offset_search),
    "randomized_search": _search_runner(_randomized_search),
}

# name -> runner(spec, rng) -> row
ALGORITHMS: dict[str, Callable] = {
    **SEARCHES,
    "select_kth": _ordering_runner(_select_kth, _kth, overlap=True),
    "min_by_runs": _ordering_runner(lambda ledger, ids, *_: adaptive.min_by_runs(ledger, ids),
                                    _least),
    "min_by_inv": _ordering_runner(
        lambda ledger, ids, vals, extra, *_: adaptive.min_by_inv(ledger, ids, info=extra), _least),
    "extract_sorted_run": _ordering_runner(_extract, _ascending_run),
    "median_by_runs": _ordering_runner(lambda ledger, ids, *_: adaptive.median_by_runs(ledger, ids),
                                       _median),
    "median_by_inv": _ordering_runner(lambda ledger, ids, *_: adaptive.median_by_inv(ledger, ids),
                                      _median),
    "median_two_runs": _ordering_runner(_median_two_runs, _median),
    "sort_by_inv": _ordering_runner(lambda ledger, ids, *_: adaptive.sort_by_inv(ledger, ids),
                                    _sorted),
    "network_sort": _ordering_runner(_network_sort, _sorted),
    "tournament_min": _ordering_runner(lambda ledger, ids, *_: tournament_min(ledger, ids), _least),
    "mom_select": _ordering_runner(
        lambda ledger, ids, vals, extra, spec, rng: mom_select(
            ledger, ids, _draw_k(spec, rng, extra, len(ids))
        ),
        _kth,
    ),
    "small_median": _ordering_runner(_small_median, _median),
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
    return Report(spec=asdict(spec), rows=rows, aggregates=_aggregate(rows))


# ---------------------------------------------------------------------------
# bound verification


def _verdict(bound: str, trial, value, limit) -> dict:
    return {"bound": bound, "trial": trial, "value": value, "limit": limit,
            "passed": bool(value <= limit), "slack": float(limit - value)}


def _check_select(report):
    out = []
    sampled = [row for row in report.rows if row.get("branch") == "sampled"]
    if sampled:
        # S' holds z, so it is never empty: k = 0 takes select_kth's max(k, 1).
        # Each row's k sets its own limit; weighting each k by its share of
        # the rows keeps a fixed-k limit at exactly 1.2·k·(k+1)
        ks = Counter(max(row["k"], 1) for row in sampled)
        bound = sum(c / len(sampled) * 1.2 * k * (k + 1) for k, c in ks.items())
        mean_sp = sum(row["Sprime_size"] for row in sampled) / len(sampled)
        out.append(_verdict("mean-filtered-size", None, mean_sp, bound))
        mean_pre = sum(row["fragility_of_selected_pre"] for row in sampled) / len(sampled)
        out.append(_verdict("mean-selected-pre-fragility", None, mean_pre, 8))
    return out


def _row_bounds(*bounds) -> Callable:
    """Checker for per-row bounds ``(name, value(row), limit(row))``.

    A bound passes when value <= limit, with slack limit - value.
    """

    def check(report):
        return [_verdict(name, row["trial"], value(row), limit(row))
                for row in report.rows for name, value, limit in bounds]

    return check


_frag_max = itemgetter("frag_max")

BOUND_SETS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "exp-search-rank": (("exp_search",), _row_bounds(
        ("query-fragility-budget", itemgetter("max_violation"), lambda r: 0),
    )),
    "offset-amortized": (("offset_search",), _row_bounds(
        ("amortized-112-over-d", lambda r: 0, itemgetter("min_slack")),
        ("rank-recursions-at-most-7", itemgetter("max_rank_repeat"), lambda r: 7),
    )),
    "randomized-mean": (("randomized_search",), _row_bounds(
        ("mean-fragility-budget", itemgetter("frag_mean"),
         lambda r: calibration.randomized_mean_budget(r["n"], r["searches"])),
    )),
    "min-runs": (("min_by_runs",), _row_bounds(
        ("min-runs-fragility", _frag_max, lambda r: 2 + ceil_log2(max(1, r["runs"]))),
    )),
    "extract-structure": (("extract_sorted_run",), _row_bounds(
        ("extract-fragility-4", _frag_max, lambda r: 4),
        ("extract-I-at-most-2Inv", itemgetter("I_size"), lambda r: 2 * r["inv"]),
    )),
    "min-inv": (("min_by_inv",), _row_bounds(
        ("min-inv-fragility", _frag_max, lambda r: 4 + ceil_log2(r["I_size"] + 1) + 1),
    )),
    "median-runs-envelope": (("median_by_runs",), _row_bounds(
        ("median-runs-envelope", _frag_max,
         lambda r: calibration.median_runs_envelope(r["runs"], r["n"])),
    )),
    "median-inv-envelope": (("median_by_inv",), _row_bounds(
        ("median-inv-envelope", _frag_max, lambda r: calibration.median_inv_envelope(r["inv"])),
    )),
    "sort-inv-envelope": (("sort_by_inv",), _row_bounds(
        ("sort-inv-envelope", _frag_max, lambda r: calibration.sort_inv_envelope(r["inv"])),
    )),
    "network-depth": (("network_sort", "small_median"), _row_bounds(
        ("network-depth", _frag_max, lambda r: network_depth_bound(r["n"])),
    )),
    "tournament": (("tournament_min",), _row_bounds(
        ("tournament-rounds", _frag_max, lambda r: ceil_log2(r["n"])),
    )),
    "two-run-median": (("median_two_runs",), _row_bounds(
        ("two-run-median-constant", _frag_max, lambda r: calibration.MEDIAN_TWO_RUNS_MAX),
    )),
    "select-expectations": (("select_kth",), _check_select),
    "oracle-agreement": (tuple(ALGORITHMS), _row_bounds(
        ("matches-oracle", lambda r: 0 if r["correct"] else 1, lambda r: 0),
    )),
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
