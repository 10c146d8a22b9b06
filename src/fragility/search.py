"""Predecessor search in a sorted array.

The array is a :class:`SortedView`, element ids (plain ints) in ascending
payload order, and a search answers with a position in that view, not with an
element id.  Three searchers share the same contract (the position of the
largest element strictly smaller than the query, or absent): plain
exponential search, the offset-rotating dyadic-interval structure for search
sequences, and a randomized offset-free variant.  The rotating structure spreads the array-side
comparison load; :func:`potential_audit` and :func:`amortized_check` make its
amortized accounting executable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import UnknownElement
from .ledger import ComparisonLedger, Ordering
from .primitives import ceil_log2

# Per-search amortized comparison budget on a fixed array element, expressed
# per unit of inverse distance to the query.
AMORTIZED_BUDGET_PER_DISTANCE = 112


@dataclass(frozen=True)
class SortedView:
    """Ids in ascending payload order (verifiable only via audit comparisons)."""

    ids: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.ids)


def make_view(ids: Sequence[int]) -> SortedView:
    return SortedView(ids=tuple(ids))


@dataclass(frozen=True)
class PredecessorResult:
    """Largest index with payload strictly smaller than the query, or absent."""

    index: Optional[int]

    @property
    def absent(self) -> bool:
        return self.index is None

    @property
    def rank(self) -> int:
        """k = 1 + index of the predecessor; 0 when absent."""
        return 0 if self.index is None else self.index + 1


@dataclass
class SearchTrace:
    """Per-search record of (query, compared positions, result)."""

    n: int
    n_padded: int
    searches: list[dict] = field(default_factory=list)
    counts: dict[int, int] = field(default_factory=dict)

    def record(
        self,
        query: int,
        result: PredecessorResult,
        compared: list[int],
        ranks: Optional[list[int]] = None,
    ) -> None:
        rec = {"query": query, "result": result.index, "compared": list(compared)}
        if ranks is not None:
            rec["ranks"] = list(ranks)
        self.searches.append(rec)
        for pos in compared:
            self.counts[pos] = self.counts.get(pos, 0) + 1

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(s, sort_keys=True) for s in self.searches) + "\n"


def _finish(lo: int) -> PredecessorResult:
    return PredecessorResult(index=lo - 1 if lo > 0 else None)


def exp_search(
    ledger: ComparisonLedger,
    view: SortedView,
    query: int,
    trace: Optional[SearchTrace] = None,
) -> PredecessorResult:
    """Exponential (doubling) search from the low end of the array.

    Probes 0-based positions 2^j - 1 capped at n-1, then binary-searches the
    bracketed gap; the query participates in O(log k) comparisons where k is
    its rank.
    """
    ids = view.ids
    n = len(ids)
    compared: list[int] = []

    def smaller(pos: int) -> bool:
        compared.append(pos)
        return ledger.compare(query, ids[pos]) is Ordering.GREATER

    lo = 0  # positions < lo are known strictly smaller than the query
    hi = n  # positions >= hi are known >= the query
    j = 0
    prev = -1
    while True:
        pos = min((1 << j) - 1, n - 1)
        if not smaller(pos):
            hi = pos
            lo = prev + 1
            break
        prev = pos
        lo = pos + 1
        if pos == n - 1:
            hi = n
            break
        j += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if smaller(mid):
            lo = mid + 1
        else:
            hi = mid
    result = _finish(lo)
    if trace is not None:
        trace.record(query, result, compared)
    return result


def exp_search_query_budget(k: int) -> int:
    """Comparison budget on the query for a search answered with rank k."""
    import math

    return 2 * (int(math.log2(k + 2)) + 2)


class OffsetSearchStructure:
    """Sorted array plus one rotating offset per dyadic aligned interval.

    Aligned intervals are half-open index ranges [b*2^i, (b+1)*2^i) on the
    grid padded to n_padded (smallest power of two >= n); only intervals
    intersecting the real index range are materialized.  All offsets start
    at zero.
    """

    def __init__(self, view: SortedView) -> None:
        self.view = view
        self.n = view.n
        self.n_padded = 1 << ceil_log2(self.n) if self.n > 1 else 1
        self.max_rank = ceil_log2(self.n_padded)
        # offsets[i][b] for rank-i interval starting at b*2^i
        self.offsets: list[list[int]] = [
            [0] * (-(-self.n // (1 << i))) for i in range(self.max_rank + 1)
        ]
        self._positions = {e: pos for pos, e in enumerate(view.ids)}

    def position_of(self, y: int) -> int:
        try:
            return self._positions[y]
        except KeyError:
            raise UnknownElement(f"{y} not in view") from None

    def slot_count(self) -> int:
        return sum(len(row) for row in self.offsets)


def build_offset_structure(view: SortedView) -> OffsetSearchStructure:
    return OffsetSearchStructure(view)


def offset_search(
    ledger: ComparisonLedger,
    s: OffsetSearchStructure,
    query: int,
    trace: Optional[SearchTrace] = None,
) -> PredecessorResult:
    """Predecessor search that rotates which element of an interval is probed.

    Each recursion picks the largest rank i with at least three rank-i
    intervals fully inside the live window, probes the floor-median
    non-extreme one at its current offset, then advances that offset modulo
    2^i.  Small windows finish with a left-to-right scan.
    """
    ids = s.view.ids
    n = s.n
    compared: list[int] = []
    ranks_used: list[int] = []

    def smaller(pos: int) -> bool:
        compared.append(pos)
        return ledger.compare(query, ids[pos]) is Ordering.GREATER

    lo = 0
    hi = s.n_padded  # virtual positions >= n behave as plus-infinity
    while True:
        live_hi = min(hi, n)
        span = live_hi - lo
        if span <= 0:
            break
        # largest rank with >= 3 fully contained live intervals
        chosen = None
        i = span.bit_length() - 1
        while i >= 1:
            first = (lo + (1 << i) - 1) >> i
            count = (live_hi >> i) - first
            if count >= 3:
                chosen = (i, first, count)
                break
            i -= 1
        if chosen is None:
            # base case: compare against each remaining element left to right
            pos = lo
            while pos < live_hi:
                if smaller(pos):
                    lo = pos + 1
                    pos += 1
                else:
                    hi = pos
                    break
            break
        i, first, count = chosen
        ranks_used.append(i)
        block = first + (count - 1) // 2  # floor-median, never extreme
        off = s.offsets[i][block]
        pos = (block << i) + off
        s.offsets[i][block] = (off + 1) % (1 << i)
        if smaller(pos):
            lo = pos + 1
        else:
            hi = pos
    result = _finish(lo)
    if trace is not None:
        trace.record(query, result, compared, ranks=ranks_used)
    return result


def randomized_search(
    ledger: ComparisonLedger,
    view: SortedView,
    query: int,
    rng: np.random.Generator,
    trace: Optional[SearchTrace] = None,
) -> PredecessorResult:
    """Binary search probing a uniformly random element of the middle half."""
    ids = view.ids
    n = len(ids)
    compared: list[int] = []
    lo, hi = 0, n
    while lo < hi:
        length = hi - lo
        start = lo + length // 4
        stop = lo + (3 * length + 3) // 4
        pos = int(rng.integers(start, stop))
        compared.append(pos)
        if ledger.compare(query, ids[pos]) is Ordering.GREATER:
            lo = pos + 1
        else:
            hi = pos
    result = _finish(lo)
    if trace is not None:
        trace.record(query, result, compared)
    return result


@dataclass
class PotentialAudit:
    """Executable rotation-debt accounting for one array element."""

    y: int
    per_rank: dict[int, int]
    phi: Fraction


def potential_audit(s: OffsetSearchStructure, y: int) -> PotentialAudit:
    """Potential of y: sum over ranks i >= 1 of (2^i - t_y) / 2^i.

    t_y is how many offset increments the rank-i interval containing y needs
    before its probe lands on y.  Arithmetic only; no counted comparisons.
    """
    pos = s.position_of(y)
    per_rank: dict[int, int] = {}
    phi = Fraction(0)
    for i in range(1, s.max_rank + 1):
        size = 1 << i
        block = pos >> i
        y_off = pos - (block << i)
        t = (y_off - s.offsets[i][block]) % size
        per_rank[i] = t
        phi += Fraction(size - t, size)
    return PotentialAudit(y=y, per_rank=per_rank, phi=phi)


@dataclass
class AmortizedVerdict:
    passed: bool
    slack: float
    count: int
    budget: float


def distance_to(result: PredecessorResult, y_pos: int) -> int:
    """Array distance between a query (sitting after its predecessor) and y."""
    p = -1 if result.index is None else result.index
    if y_pos <= p:
        return p - y_pos + 1
    return max(1, y_pos - p)


def amortized_check(trace: SearchTrace, y_pos: int) -> AmortizedVerdict:
    """Check count(y) <= ceil(log2 n_padded) + sum over searches of 112/d."""
    budget = float(ceil_log2(trace.n_padded))
    for rec in trace.searches:
        result = PredecessorResult(index=rec["result"])
        budget += AMORTIZED_BUDGET_PER_DISTANCE / distance_to(result, y_pos)
    count = trace.counts.get(y_pos, 0)
    return AmortizedVerdict(passed=count <= budget, slack=budget - count, count=count, budget=budget)


def predecessor_oracle(
    ledger: ComparisonLedger, view: SortedView, query: int
) -> PredecessorResult:
    """Linear-scan audit-mode oracle."""
    best = None
    for pos, e in enumerate(view.ids):
        if ledger.audit_compare(e, query) is Ordering.LESS:
            best = pos
    return PredecessorResult(index=best)
