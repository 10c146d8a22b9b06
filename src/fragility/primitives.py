"""Comparison-count-bounded building blocks.

Sorting uses Batcher's odd-even mergesort network, whose depth bounds the
number of comparisons any single element participates in.  The network on m
wires has one representation, ``build_schedule(m)``: cached read-only index
arrays of its comparators in layer order, which ``network_sort`` hands to
``ComparisonLedger.sort_network`` to run.  The remaining primitives
(tournament minimum, galloping merge, deterministic selection) are shared by
the search, selection and adaptive modules.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import EmptyInput, RankOutOfRange
from .ledger import ComparisonLedger


def ceil_log2(m: int) -> int:
    if m <= 1:
        return 0
    return (m - 1).bit_length()


def network_depth_bound(m: int) -> int:
    """Depth of the odd-even mergesort network on m wires."""
    t = ceil_log2(m)
    return t * (t + 1) // 2


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def build_schedule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knuth's odd-even merge sort network on m wires as read-only arrays
    ``(lo, hi, ends)``.

    Comparator c orders wires ``lo[c] < hi[c]``; layer i holds comparators
    ``ends[i-1]:ends[i]`` (from 0 for the first), and the wires within a layer
    are disjoint.  Pass (p, k) compares wire x with y = x + k when x >= r =
    k mod p, (x - r) mod 2k < k, y < m, and both wires lie in one block of 2p;
    empty passes are dropped.  This is the network for the next power of two
    less every comparator that touches a wire >= m: those wires hold imagined
    plus-infinity sentinels, which never move below the real wires.
    """
    x = np.arange(m, dtype=np.intp)
    los, his = [], []
    p = 1
    while p < m:
        k = p
        while k >= 1:
            r = k % p
            lo = x[r : m - k]  # r <= x and x + k < m
            lo = lo[((lo - r) % (2 * k) < k) & (lo % (2 * p) < 2 * p - k)]  # x + k in x's block
            if lo.size:
                los.append(lo)
                his.append(lo + k)
            k //= 2
        p *= 2
    ends = np.cumsum([len(lo) for lo in los], dtype=np.intp)
    return _read_only(np.concatenate([x[:0], *los]), np.concatenate([x[:0], *his]), ends)


def network_sort(ledger: ComparisonLedger, ids: Sequence[int]) -> list[int]:
    """Sort via the Batcher network; per-element comparisons <= network depth.

    :meth:`ComparisonLedger.sort_network` runs the network, counted as a loop
    of :meth:`ComparisonLedger.less` over its comparators.
    """
    return list(ids) if len(ids) < 2 else ledger.sort_network(ids, *build_schedule(len(ids)))


def tournament_min(ledger: ComparisonLedger, ids: Sequence[int]) -> int:
    """Knockout minimum; every participant plays <= ceil(log2 m) rounds."""
    alive = list(ids)
    if not alive:
        raise EmptyInput("tournament over no elements")
    while len(alive) > 1:
        nxt = []
        for i in range(0, len(alive) - 1, 2):
            a, b = alive[i], alive[i + 1]
            nxt.append(a if ledger.less(a, b) else b)
        if len(alive) % 2:
            nxt.append(alive[-1])
        alive = nxt
    return alive[0]


def _gallop(
    ledger: ComparisonLedger,
    key: int,
    xs: Sequence[int],
    start: int,
) -> int:
    """Number of leading elements of xs[start:] strictly below key.

    Probes at doubling offsets, then binary-searches the bracketed gap, so the
    cost scales with the logarithm of the returned count.
    """
    n = len(xs)
    prev = -1
    off = 0
    while True:
        pos = start + off
        if pos >= n:
            hi = n - start
            break
        if ledger.less(xs[pos], key):
            prev = off
            off = off * 2 + 1
        else:
            hi = off
            break
    lo = prev + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ledger.less(xs[start + mid], key):
            lo = mid + 1
        else:
            hi = mid
    return lo


def exponential_merge(
    ledger: ComparisonLedger,
    a: Sequence[int],
    b: Sequence[int],
) -> list[int]:
    """Merge two ascending sequences by alternating galloping runs.

    Ascending means the session's canonical strict order (payload, then
    element index), so equal payloads merge deterministically in index order.
    """
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        c = _gallop(ledger, b[j], a, i)
        out.extend(a[i : i + c])
        i += c
        if i >= len(a):
            break
        c = _gallop(ledger, a[i], b, j)
        out.extend(b[j : j + c])
        j += c
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def mom_select(ledger: ComparisonLedger, ids: Sequence[int], k: int) -> int:
    """Deterministic rank-k selection (median of medians, group size 5)."""
    pool = list(ids)
    if not (0 <= k < len(pool)):
        raise RankOutOfRange(f"k={k} outside [0, {len(pool)})")
    while True:
        m = len(pool)
        if m <= 10:
            return network_sort(ledger, pool)[k]
        medians = []
        for g in range(0, m, 5):
            group = pool[g : g + 5]
            medians.append(network_sort(ledger, group)[(len(group) - 1) // 2])
        pivot = mom_select(ledger, medians, (len(medians) - 1) // 2)
        others = np.array(pool, dtype=np.intp)
        others = others[others != pivot]
        below = ledger.less_batch(others, pivot)
        lower, upper = others[below].tolist(), others[~below].tolist()
        r = len(lower)
        if k < r:
            pool = lower
        elif k == r:
            return pivot
        else:
            pool = upper
            k -= r + 1


def small_median(ledger: ComparisonLedger, ids: Sequence[int]) -> int:
    """Lower median via a full network sort; per-element cost <= depth."""
    pool = list(ids)
    if not pool:
        raise EmptyInput("median of no elements")
    return network_sort(ledger, pool)[(len(pool) - 1) // 2]
