"""Predecessor search in a sorted array.

The array is a view, a tuple of element ids (plain ints) in ascending payload
order, and a search answers with the query's rank in that view: the number of
view elements strictly smaller than the query, so the predecessor sits at
position rank - 1 and rank 0 means it is absent.  Three searchers share that
contract: plain exponential search, the offset-rotating dyadic-interval
structure for search sequences, and a randomized offset-free variant.  The
rotating structure spreads the array-side comparison load;
:func:`potential_audit` and :func:`budget_per_element` make its amortized
accounting executable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .ledger import ComparisonLedger
from .primitives import ceil_log2

# Per-search amortized comparison budget on a fixed array element, expressed
# per unit of inverse distance to the query.
AMORTIZED_BUDGET_PER_DISTANCE = 112


def make_view(ids: Sequence[int]) -> tuple[int, ...]:
    """Ids in ascending payload order (verifiable only via audit comparisons)."""
    return tuple(ids)


def exp_search(ledger: ComparisonLedger, view: tuple[int, ...], query: int) -> int:
    """Exponential (doubling) search from the low end of the array.

    Probes 0-based positions 2^j - 1 capped at n-1, then binary-searches the
    bracketed gap; the query participates in O(log k) comparisons where k is
    its rank.
    """
    n = len(view)

    def smaller(pos: int) -> bool:
        return ledger.compare(query, view[pos]) > 0

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
    return lo


def exp_search_query_budget(k: int) -> int:
    """Comparison budget on the query for a search answered with rank k."""
    return 2 * (int(math.log2(k + 2)) + 2)


class OffsetSearchStructure:
    """Sorted array plus one rotating offset per dyadic aligned interval.

    Aligned intervals are half-open index ranges [b*2^i, (b+1)*2^i) on the
    grid padded to n_padded (smallest power of two >= n); only intervals
    intersecting the real index range are materialized.  All offsets start
    at zero.
    """

    def __init__(self, view: tuple[int, ...]) -> None:
        self.view = view
        self.n = len(view)
        self.n_padded = 1 << ceil_log2(self.n) if self.n > 1 else 1
        self.max_rank = ceil_log2(self.n_padded)
        # offsets[i][b] for rank-i interval starting at b*2^i
        self.offsets: list[list[int]] = [
            [0] * (-(-self.n // (1 << i))) for i in range(self.max_rank + 1)
        ]


def build_offset_structure(view: tuple[int, ...]) -> OffsetSearchStructure:
    return OffsetSearchStructure(view)


def offset_search(
    ledger: ComparisonLedger,
    s: OffsetSearchStructure,
    query: int,
    ranks_used: Optional[list[int]] = None,
) -> int:
    """Predecessor search that rotates which element of an interval is probed.

    Each recursion picks the largest rank i with at least three rank-i
    intervals fully inside the live window, probes the floor-median
    non-extreme one at its current offset, then advances that offset modulo
    2^i.  Small windows finish with a left-to-right scan.  Each recursion's
    rank i is appended to ``ranks_used`` when one is given.
    """
    view = s.view
    n = s.n

    def smaller(pos: int) -> bool:
        return ledger.compare(query, view[pos]) > 0

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
        if ranks_used is not None:
            ranks_used.append(i)
        block = first + (count - 1) // 2  # floor-median, never extreme
        off = s.offsets[i][block]
        pos = (block << i) + off
        s.offsets[i][block] = (off + 1) % (1 << i)
        if smaller(pos):
            lo = pos + 1
        else:
            hi = pos
    return lo


def randomized_search(
    ledger: ComparisonLedger,
    view: tuple[int, ...],
    query: int,
    rng: np.random.Generator,
) -> int:
    """Binary search probing a uniformly random element of the middle half."""
    lo, hi = 0, len(view)
    while lo < hi:
        length = hi - lo
        start = lo + length // 4
        stop = lo + (3 * length + 3) // 4
        pos = int(rng.integers(start, stop))
        if ledger.compare(query, view[pos]) > 0:
            lo = pos + 1
        else:
            hi = pos
    return lo


def potential_audit(s: OffsetSearchStructure, pos: int) -> Fraction:
    """Potential phi of array position pos: sum over ranks i >= 1 of
    (2^i - t) / 2^i.

    t is how many offset increments the rank-i interval containing pos needs
    before its probe lands on pos.  Arithmetic only; no counted comparisons.
    """
    phi = Fraction(0)
    for i in range(1, s.max_rank + 1):
        size = 1 << i
        block = pos >> i
        t = (pos - (block << i) - s.offsets[i][block]) % size
        phi += Fraction(size - t, size)
    return phi


def distance_to(rank: int, pos: int) -> int:
    """Array distance between a query of this rank (sitting after its
    predecessor at rank - 1) and array position pos; inclusive, minimum 1."""
    return rank - pos if pos < rank else pos - rank + 1


def budget_per_element(s: OffsetSearchStructure, ranks: Sequence[int]) -> np.ndarray:
    """Amortized budget of every array position: ceil(log2 n_padded) plus,
    over the searches answered with ``ranks`` in order, 112 / distance_to(rank,
    position).  The ``offset-amortized`` bound checks the array's ledger
    counts against it."""
    budget = np.full(s.n, float(ceil_log2(s.n_padded)))
    pos = np.arange(s.n)
    for k in ranks:
        d = np.where(pos < k, k - pos, pos - k + 1)
        budget += AMORTIZED_BUDGET_PER_DISTANCE / d
    return budget

