"""In-memory spans around the public functions of each `fragility` layer.

Nothing here edits the package: a wrapper replaces a function object in every
`fragility` module namespace that holds it (and in the closure cells of the
harness trial runners), so each call path a user takes passes through it.

A span is ``[name, start, end, parent, trial, size, leaf_s, leaf_calls]``.
``size`` is the call's input size where one exists (wires, pairs, elements).
Scalar ``ComparisonLedger.compare`` runs millions of times per trial, so it
gets no span of its own: its time and call count are added to the open span
as ``leaf_s`` and ``leaf_calls``, which keeps the spans' self times summing to
the traced wall time without a list entry per comparison.
"""

from __future__ import annotations

import csv
import sys
import time
from functools import wraps

_now = time.perf_counter

# (module, function) pairs wrapped as spans; every namespace importing the
# function is rebound.  Private helpers and O(1) arithmetic (ceil_log2,
# exp_search_query_budget) stay unwrapped: their cost belongs to the caller.
SPAN_FUNCTIONS = {
    "ledger": ("new_session",),
    "generators": (
        "gen_random",
        "gen_controlled_runs",
        "gen_controlled_inv",
        "gen_two_runs",
        "gen_adversarial_run_plus_one",
        "gen_lower_bound_instance",
        "with_duplicates",
    ),
    "primitives": (
        "build_schedule",
        "network_sort",
        "tournament_min",
        "exponential_merge",
        "mom_select",
        "small_median",
    ),
    "search": (
        "make_view",
        "build_offset_structure",
        "exp_search",
        "offset_search",
        "randomized_search",
    ),
    "selection": ("reset", "select_kth"),
    "adaptive": (
        "count_runs",
        "min_by_runs",
        "extract_sorted_run",
        "min_by_inv",
        "median_two_runs",
        "median_by_runs",
        "median_by_inv",
        "sort_by_inv",
    ),
    "harness": ("run_experiment", "verify"),
    "cli": ("main",),
}
# (module, class, method) spans; methods live on the class, so one rebind
# covers every caller.
SPAN_METHODS = (
    ("ledger", "ComparisonLedger", "ids"),
    ("ledger", "ComparisonLedger", "compare_batch"),
    ("harness", "Report", "to_json"),
    ("harness", "Report", "from_json"),
)
# Span sizes: how to read an input size off the call's arguments.
_SIZE_ARG = {
    "ledger.new_session": lambda a, k: len(a[0]),
    "ledger.compare_batch": lambda a, k: len(a[1]),
    "primitives.build_schedule": lambda a, k: a[0],
    "primitives.network_sort": lambda a, k: len(a[1]),
    "generators.gen_random": lambda a, k: a[0],
    "generators.gen_controlled_runs": lambda a, k: a[0],
    "generators.gen_controlled_inv": lambda a, k: a[0],
    "generators.gen_two_runs": lambda a, k: a[0],
    "generators.gen_adversarial_run_plus_one": lambda a, k: a[0],
    "generators.gen_lower_bound_instance": lambda a, k: a[0],
}

NAME, START, END, PARENT, TRIAL, SIZE, LEAF_S, LEAF_CALLS = range(8)


def fragility_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "fragility"]


def rebind(old, new, extra_functions=()) -> int:
    """Replace ``old`` by ``new`` wherever a `fragility` namespace holds it.

    Also rewrites closure cells of ``extra_functions`` (the harness trial
    runners close over the algorithm they call).  Returns the number of
    bindings replaced.
    """
    hits = 0
    for mod in fragility_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
    for fn in extra_functions:
        for cell in getattr(fn, "__closure__", None) or ():
            if cell.cell_contents is old:
                cell.cell_contents = new
                hits += 1
    return hits


class Tracer:
    """Collects spans for one traced phase; written out by :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = -1
        self.compare_calls = 0
        self.compare_s = 0.0

    def open(self, name: str, size: int = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.trial, size, 0.0, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = _now()
        self.stack.pop()

    def span_wrapper(self, name: str, fn):
        size_of = _SIZE_ARG.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, size_of(args, kwargs) if size_of else 0)
            misses = cache_info().misses if cache_info else 0
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if cache_info and cache_info().misses == misses:
                    self.spans[idx][NAME] = name + ".hit"

        return traced

    def leaf_wrapper(self, fn):
        spans, stack = self.spans, self.stack

        def compare(ledger, a, b):
            t0 = _now()
            out = fn(ledger, a, b)
            dt = _now() - t0
            self.compare_calls += 1
            self.compare_s += dt
            if stack:
                span = spans[stack[-1]]
                span[LEAF_S] += dt
                span[LEAF_CALLS] += 1
            return out

        return compare

    def install(self, runners) -> None:
        """Wrap every listed function and method; ``runners`` are the harness
        trial runners whose closures may hold an algorithm."""
        import fragility.ledger as ledger_mod

        for modname, names in SPAN_FUNCTIONS.items():
            mod = sys.modules[f"fragility.{modname}"]
            for fname in names:
                current = getattr(mod, fname)
                rebind(current, self.span_wrapper(f"{modname}.{fname}", current), runners)
        for modname, clsname, meth in SPAN_METHODS:
            cls = getattr(sys.modules[f"fragility.{modname}"], clsname)
            current = vars(cls)[meth]
            if isinstance(current, classmethod):
                wrapped = classmethod(self.span_wrapper(f"{modname}.{meth}", current.__func__))
            else:
                wrapped = self.span_wrapper(f"{modname}.{meth}", current)
            setattr(cls, meth, wrapped)
        cls = ledger_mod.ComparisonLedger
        cls.compare = self.leaf_wrapper(cls.compare)

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans minus leaf (scalar compare) time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - child[i] - s[LEAF_S] for i, s in enumerate(self.spans)]

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "trial", "size", "leaf_s", "leaf_calls"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], f"{s[START]:.9f}", f"{s[END]:.9f}", *s[PARENT:LEAF_S], f"{s[LEAF_S]:.9f}", s[LEAF_CALLS]])
