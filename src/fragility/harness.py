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
from dataclasses import asdict, dataclass, field
from operator import itemgetter
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
    SearchTrace,
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
#
# Table entries reach the input generators and the algorithms at call time,
# through a module attribute or a harness global, and never hold them as
# function objects, so that a wrapper rebound to those names sees every trial.

# name -> call(spec, rng) -> payloads; an unset target takes the default shown
SEQUENCE_GENERATORS: dict[str, Callable] = {
    "random": lambda s, rng: generators.gen_random(s.n, rng),
    "controlled_runs": lambda s, rng: generators.gen_controlled_runs(
        s.n, 2 if s.runs is None else s.runs, rng
    ),
    "controlled_inv": lambda s, rng: generators.gen_controlled_inv(
        s.n, s.n if s.inv is None else s.inv, rng
    ),
    "adversarial_run_plus_one": lambda s, rng: generators.gen_adversarial_run_plus_one(s.n, rng),
    "two_runs": lambda s, rng: generators.gen_two_runs(
        s.n, s.n // 2 if s.split is None else s.split, rng
    ),
    "lower_bound": lambda s, rng: generators.gen_lower_bound_instance(
        s.n, s.n if s.k is None else s.k, rng
    ),
}


def generate(spec, rng: np.random.Generator) -> list[int] | np.ndarray:
    """The payloads of ``spec``'s sequence generator, collapsed to pairs of
    ties when ``spec.duplicates`` is set: a list, or the array that
    ``gen_random`` returns.

    Reads only ``generator``, ``n``, ``runs``, ``inv``, ``split``, ``k`` and
    ``duplicates``, so the CLI passes its parsed flags.
    """
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


def _ordering_runner(call, answer):
    """generate -> session -> ``call`` -> base row -> check against the oracle.

    ``call(ledger, ids, vals, extra, spec, rng)`` runs the algorithm on the
    payload array ``vals`` and puts any row fields of its own into ``extra``.
    ``answer`` names the oracle's answer in :data:`_ANSWERS` that the result
    must equal, or is None when the call sets ``correct`` itself.
    """

    def run(spec, rng):
        vals = generate(spec, rng)
        ledger, ids = new_session(vals)
        arr = np.asarray(vals)
        extra: dict = {}
        res = call(ledger, ids, arr, extra, spec, rng)
        row, order = _base_row(ledger, arr)
        row.update(extra)
        if answer is not None:
            row["correct"] = res == _ANSWERS[answer](order, row)
        return row

    return run


# expected answer -> the oracle's answer, from the canonical order and the row
_ANSWERS: dict[str, Callable] = {
    "least": lambda order, row: int(order[0]),
    "median": lambda order, row: int(order[(row["n"] - 1) // 2]),
    "k-th": lambda order, row: int(order[row["k"]]),
    "sorted": lambda order, row: order.tolist(),
}


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
    ext = adaptive.extract_sorted_run(ledger, ids)
    keys = [ledger.sort_key(e) for e in ext.R]
    extra["correct"] = keys == sorted(keys) and len(ext.R) + len(ext.I) == len(ids)
    extra["I_size"] = len(ext.I)


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


# name -> (call, answer) of :func:`_ordering_runner`
ORDERINGS: dict[str, tuple[Callable, Optional[str]]] = {
    "select_kth": (_select_kth, "k-th"),
    "min_by_runs": (lambda ledger, ids, *_: adaptive.min_by_runs(ledger, ids), "least"),
    "min_by_inv": (
        lambda ledger, ids, vals, extra, *_: adaptive.min_by_inv(ledger, ids, info=extra),
        "least",
    ),
    "extract_sorted_run": (_extract, None),
    "median_by_runs": (lambda ledger, ids, *_: adaptive.median_by_runs(ledger, ids), "median"),
    "median_by_inv": (lambda ledger, ids, *_: adaptive.median_by_inv(ledger, ids), "median"),
    "median_two_runs": (_median_two_runs, "median"),
    "sort_by_inv": (lambda ledger, ids, *_: adaptive.sort_by_inv(ledger, ids), "sorted"),
    "network_sort": (_network_sort, "sorted"),
    "tournament_min": (lambda ledger, ids, *_: tournament_min(ledger, ids), "least"),
    "mom_select": (
        lambda ledger, ids, vals, extra, spec, rng: mom_select(
            ledger, ids, _draw_k(spec, rng, extra, len(ids))
        ),
        "k-th",
    ),
    "small_median": (_small_median, "median"),
}


def _search_runner(search):
    """A session of the n array payloads 0, 2, .., 2n-2 and one odd payload
    per query rank.  ``search(ledger, view, queries, ranks, rng)`` answers the
    queries in order and returns the ranks it found and its own row fields."""

    def run(spec, rng):
        n = spec.n
        ranks = RANK_GENERATORS[spec.generator](spec, rng)
        values = [2 * i for i in range(n)] + [2 * int(r) - 1 for r in ranks]
        ledger, ids = new_session(values)
        found, row = search(ledger, make_view(ids[:n]), ids[n:], ranks, rng)
        arr = ledger.counts[:n]
        row.update(
            n=n,
            searches=len(ranks),
            correct=found == ranks.tolist(),
            frag_max=int(arr.max()),
            frag_mean=float(arr.mean()),
            total=int(ledger.total),
        )
        return row

    return run


def _exp_search(ledger, view, queries, ranks, rng):
    found = [exp_search(ledger, view, q).rank for q in queries]
    # a query takes part only in its own search
    violations = [
        int(ledger.counts[q]) - exp_search_query_budget(int(k)) for q, k in zip(queries, ranks)
    ]
    worst = int(np.argmax(violations))
    return found, {"max_violation": violations[worst], "worst_k": int(ranks[worst])}


def _offset_search(ledger, view, queries, ranks, rng):
    structure = build_offset_structure(view)
    trace = SearchTrace(n=view.n, n_padded=structure.n_padded)
    found = [offset_search(ledger, structure, q, trace=trace).rank for q in queries]
    slack = budget_per_element(trace) - ledger.counts[: view.n]
    rank_repeats = max(
        (max((rec["ranks"].count(r) for r in set(rec["ranks"])), default=0)
         for rec in trace.searches if rec.get("ranks")),
        default=0,
    )
    return found, {
        "min_slack": float(slack.min()),
        "violations": int((slack < 0).sum()),
        "max_rank_repeat": int(rank_repeats),
    }


def _randomized_search(ledger, view, queries, ranks, rng):
    found = [randomized_search(ledger, view, q, rng).rank for q in queries]
    return found, {"mean_budget": calibration.randomized_mean_budget(view.n, len(queries))}


SEARCHES: dict[str, Callable] = {
    "exp_search": _search_runner(_exp_search),
    "offset_search": _search_runner(_offset_search),
    "randomized_search": _search_runner(_randomized_search),
}

# name -> runner(spec, rng) -> row
ALGORITHMS: dict[str, Callable] = {
    **SEARCHES,
    **{name: _ordering_runner(call, answer) for name, (call, answer) in ORDERINGS.items()},
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
    return Report(spec=spec.to_dict(), rows=rows, aggregates=_aggregate(rows))


# ---------------------------------------------------------------------------
# bound verification


def _verdict(bound: str, trial, passed: bool, slack: float) -> dict:
    return {"bound": bound, "trial": trial, "passed": bool(passed), "slack": float(slack)}


def _check_correct(report):
    return [
        _verdict("matches-oracle", row["trial"], bool(row["correct"]), 0.0 if row["correct"] else -1.0)
        for row in report.rows
    ]


def _check_select(report):
    out = _check_correct(report)
    sampled = [row for row in report.rows if row.get("branch") == "sampled"]
    if sampled:
        # S' holds z, so it is never empty: k = 0 takes select_kth's max(k, 1)
        k = max(sampled[0]["k"], 1)
        mean_sp = sum(row["Sprime_size"] for row in sampled) / len(sampled)
        bound = 1.2 * k * (k + 1)
        out.append(_verdict("mean-filtered-size", None, mean_sp <= bound, bound - mean_sp))
        mean_pre = sum(row["fragility_of_selected_pre"] for row in sampled) / len(sampled)
        out.append(_verdict("mean-selected-pre-fragility", None, mean_pre <= 8, 8 - mean_pre))
    return out


def _row_bounds(*bounds, oracle: bool = False) -> Callable:
    """Checker for per-row bounds ``(name, value(row), limit(row))``.

    A bound passes when value <= limit, with slack limit - value.  With
    ``oracle`` the ``matches-oracle`` verdicts of every row come first.
    """

    def check(report):
        out = _check_correct(report) if oracle else []
        for row in report.rows:
            for name, value, limit in bounds:
                v, lim = value(row), limit(row)
                out.append(_verdict(name, row["trial"], v <= lim, lim - v))
        return out

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
        ("mean-fragility-budget", itemgetter("frag_mean"), itemgetter("mean_budget")),
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
        oracle=True,
    )),
    "median-inv-envelope": (("median_by_inv",), _row_bounds(
        ("median-inv-envelope", _frag_max, lambda r: calibration.median_inv_envelope(r["inv"])),
        oracle=True,
    )),
    "sort-inv-envelope": (("sort_by_inv",), _row_bounds(
        ("sort-inv-envelope", _frag_max, lambda r: calibration.sort_inv_envelope(r["inv"])),
        oracle=True,
    )),
    "network-depth": (("network_sort", "small_median"), _row_bounds(
        ("network-depth", _frag_max, itemgetter("depth_bound")),
        oracle=True,
    )),
    "tournament": (("tournament_min",), _row_bounds(
        ("tournament-rounds", _frag_max, lambda r: ceil_log2(r["n"])),
        oracle=True,
    )),
    "two-run-median": (("median_two_runs",), _row_bounds(
        ("two-run-median-constant", _frag_max, lambda r: calibration.MEDIAN_TWO_RUNS_MAX),
        oracle=True,
    )),
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
