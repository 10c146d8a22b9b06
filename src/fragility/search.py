"""Predecessor search in a sorted array.

The array is a view, a tuple of element ids (plain ints) in ascending payload
order, and a search answers with the query's rank in that view: the number of
view elements strictly smaller than the query, so the predecessor sits at
position rank - 1 and rank 0 means it is absent.  Three searchers share that
contract: plain exponential search, the offset-rotating dyadic-interval
search for search sequences, and a randomized offset-free variant.  The
rotating search spreads the array-side comparison load; its only state is the
offsets table ``offsets[i][b]`` of :func:`build_offset_structure`.
:func:`potential_audit`, an exact float, and :func:`budget_per_element`, the
112/d terms summed in search order, make its amortized accounting executable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .ledger import ComparisonLedger
from .primitives import ceil_log2

# Per-search amortized comparison budget on a fixed array element, expressed
# per unit of inverse distance to the query.
AMORTIZED_BUDGET_PER_DISTANCE = 112
# budget_per_element adds up to this many (search, position) terms per numpy
# pass (256 searches at n = 1024), which keeps its temporaries to a few MB
_BUDGET_CELLS = 1 << 18


def make_view(ids: Sequence[int]) -> tuple[int, ...]:
    """Ids in ascending payload order, as a tuple; the searches trust that order."""
    return tuple(ids)


def exp_search(ledger: ComparisonLedger, view: tuple[int, ...], query: int) -> int:
    """Exponential (doubling) search from the low end of the array.

    Probes 0-based positions 2^j - 1 capped at n-1, then binary-searches the
    bracketed gap; the query participates in O(log k) comparisons where k is
    its rank.
    """
    n = len(view)
    lo = 0  # positions < lo are known strictly smaller than the query
    hi = n  # positions >= hi are known >= the query
    step = 1
    while lo < n:
        pos = min(step - 1, n - 1)
        if ledger.compare(query, view[pos]) <= 0:
            hi = pos
            break
        lo = pos + 1
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if ledger.compare(query, view[mid]) > 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def exp_search_query_budget(k: int) -> int:
    """Comparison budget on the query for a search answered with rank k."""
    return 2 * (int(math.log2(k + 2)) + 2)


def build_offset_structure(view: tuple[int, ...]) -> list[list[int]]:
    """The rotating offsets of a view of n elements, all zero.

    ``offsets[i][b]`` belongs to the rank-i aligned interval
    [b*2^i, (b+1)*2^i) of the grid padded to the next power of two; only
    intervals that meet the real positions get a slot.  So n is
    ``len(offsets[0])`` and the largest rank, ceil(log2 n), is
    ``len(offsets) - 1``.
    """
    n = len(view)
    return [[0] * -(-n >> i) for i in range(ceil_log2(n) + 1)]


def offset_search(
    ledger: ComparisonLedger,
    view: tuple[int, ...],
    offsets: list[list[int]],
    query: int,
    ranks_used: list[int],
) -> int:
    """Predecessor search that rotates which element of an interval is probed.

    Each recursion picks the largest rank i with at least three rank-i
    intervals fully inside the live window, probes the floor-median
    non-extreme one at its current offset, then advances that offset modulo
    2^i.  Small windows finish with a left-to-right scan.  Each recursion's
    rank i is appended to ``ranks_used``.
    """
    n = len(view)
    lo = 0
    hi = 1 << (len(offsets) - 1)  # virtual positions >= n behave as plus-infinity
    while (live_hi := min(hi, n)) > lo:
        # largest rank with >= 3 fully contained live intervals
        for i in range((live_hi - lo).bit_length() - 1, 0, -1):
            first = (lo + (1 << i) - 1) >> i
            count = (live_hi >> i) - first
            if count >= 3:
                break
        else:
            # base case: compare against each remaining element left to right
            while lo < live_hi and ledger.compare(query, view[lo]) > 0:
                lo += 1
            return lo
        ranks_used.append(i)
        block = first + (count - 1) // 2  # floor-median, never extreme
        row = offsets[i]
        off = row[block]
        row[block] = (off + 1) % (1 << i)
        pos = (block << i) + off
        if ledger.compare(query, view[pos]) > 0:
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


def potential_audit(offsets: list[list[int]], pos: int) -> float:
    """Potential phi of array position pos: sum over ranks i >= 1 of
    (2^i - t) / 2^i.

    t is how many offset increments the rank-i interval containing pos needs
    before its probe lands on pos.  Every term is a multiple of 2^-m, where
    m = ceil(log2 n) is the largest rank, and phi <= m, so a double holds
    every partial sum exactly while m <= 47: phi and differences of phi are
    exact.  Arithmetic only; no counted comparisons.
    """
    phi = 0.0
    for i in range(1, len(offsets)):
        size = 1 << i
        t = (pos - offsets[i][pos >> i]) % size
        phi += (size - t) / size
    return phi


def distance_to(rank, pos):
    """Array distance between a query of this rank (sitting after its
    predecessor at rank - 1) and array position pos; inclusive, minimum 1.
    Takes ints or numpy arrays."""
    return abs(2 * (pos - rank) + 1) // 2 + 1


def budget_per_element(offsets: list[list[int]], ranks: Sequence[int]) -> np.ndarray:
    """Amortized budget of every array position: ceil(log2 n) plus, over the
    searches answered with ``ranks`` in order, 112 / distance_to(rank,
    position).  The terms are added one search after another, as numpy's
    axis-0 sum adds rows, so the floats do not depend on the batching.  The
    ``offset-amortized`` bound checks the array's ledger counts against it."""
    n = len(offsets[0])
    budget = np.full(n, float(len(offsets) - 1))
    pos = np.arange(n)
    ranks = np.asarray(ranks, dtype=np.intp)[:, None]
    step = max(1, _BUDGET_CELLS // max(n, 1))
    for start in range(0, len(ranks), step):
        rows = AMORTIZED_BUDGET_PER_DISTANCE / distance_to(ranks[start : start + step], pos)
        budget = np.vstack((budget, rows)).sum(axis=0)
    return budget
