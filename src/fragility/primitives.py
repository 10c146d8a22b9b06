"""Comparison-count-bounded building blocks.

Sorting uses Batcher's odd-even mergesort network, whose depth bounds the
number of comparisons any single element participates in.  The network on m
wires has one representation, ``build_schedule(m)``: cached read-only index
arrays of its comparators in layer order, which both paths of
``network_sort`` read: a loop of counted ``less`` calls, and one
``ComparisonLedger.sort_network`` call that runs every layer on the elements'
ranks.  The remaining primitives (tournament minimum, galloping merge,
deterministic selection) are shared by the search, selection and adaptive
modules.
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
def _batcher_network(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knuth's odd-even merge sort on n = 2^t wires, in the form of
    :func:`build_schedule`.

    Pass (p, k) compares wire x with x + k when x >= r = k mod p,
    (x - r) mod 2k < k, x + k < n, and both wires lie in one block of 2p.
    """
    x = np.arange(n, dtype=np.intp)
    los, his = [], []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            r = k % p
            y = x + k
            lo = x[(x >= r) & ((x - r) % (2 * k) < k) & (y < n) & (x // (2 * p) == y // (2 * p))]
            los.append(lo)
            his.append(lo + k)
            k //= 2
        p *= 2
    ends = np.cumsum([len(lo) for lo in los], dtype=np.intp)
    return _read_only(np.concatenate([x[:0], *los]), np.concatenate([x[:0], *his]), ends)


@lru_cache(maxsize=None)
def build_schedule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The network on m wires as read-only arrays ``(lo, hi, ends)``.

    Comparator c orders wires ``lo[c] < hi[c]``; layer i holds comparators
    ``ends[i-1]:ends[i]`` (from 0 for the first), and the wires within a layer
    are disjoint.  It is the network for the next power of two with every
    comparator that touches a wire >= m dropped: those wires hold imagined
    plus-infinity sentinels, which never move below the real wires.  Layers
    left empty are dropped too.
    """
    lo, hi, ends = _batcher_network(1 << ceil_log2(m))
    keep = hi < m
    kept = np.cumsum(keep, dtype=np.intp)[ends - 1]
    ends = np.unique(kept[kept > 0])
    return _read_only(lo[keep], hi[keep], ends)


# Small networks are faster one comparator at a time through ``less`` than in
# one ``sort_network`` call, whose ranking and tally cost ~12 us in all.  Warm
# schedule, in a phase (CPython 3.11.7, numpy 2.4.6, 2 vCPU), scalar against
# sort_network: 23-26 against 31-32 us at 12 wires, 29-31 against 31-33 at 14,
# 32-36 against 31-32 at 15, 35-37 against 31-33 at 16, 100-106 against 44 at 32.
SCALAR_NETWORK_WIRES = 14


def network_sort(ledger: ComparisonLedger, ids: Sequence[int]) -> list[int]:
    """Sort via the Batcher network; per-element comparisons <= network depth.

    Small networks, and payloads that :meth:`ComparisonLedger.sort_network`
    cannot rank (NaN, tuples, objects), run their comparators one at a time
    through :meth:`ComparisonLedger.less`; larger ones run in one
    ``sort_network`` call.  Both apply the same comparators to the same
    elements, so the result and every count are identical.
    """
    m = len(ids)
    if m < 2:
        return list(ids)
    lo, hi, ends = build_schedule(m)
    if m > SCALAR_NETWORK_WIRES:
        out = ledger.sort_network(ids, lo, hi, ends)
        if out is not None:
            return out
    out = list(ids)
    less = ledger.less
    for i, j in zip(lo.tolist(), hi.tolist()):
        if not less(out[i], out[j]):
            out[i], out[j] = out[j], out[i]
    return out


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
