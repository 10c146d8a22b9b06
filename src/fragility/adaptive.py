"""Algorithms adaptive to existing order (runs and inversions).

A run is a maximal consecutive ascending subsequence; Runs is their number.
Inv is the number of out-of-order pairs.  The minimum, median and sorting
routines here spend per-element comparisons proportional to the logarithm of
the disorder measure rather than of n, up to the squared-log factors of the
comparator-network building blocks.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyInput
from .ledger import ComparisonLedger
from .primitives import (
    ceil_log2,
    exponential_merge,
    network_sort,
    small_median,
    tournament_min,
)

# Phase labels for fragility profiles.
PHASE_SCAN = "scan"
PHASE_EXTRACT = "extract"
PHASE_TOURNAMENT = "tournament"
PHASE_PARTITION_SORT = "partition-sort"
PHASE_FINAL = "final"


def count_runs(ledger: ComparisonLedger, seq: Sequence[int]) -> list[list[int]]:
    """The maximal ascending runs of ``seq``, as id lists in input order.

    One batch of neighbour comparisons; each element meets only its two
    neighbours.  A strict descent (``less(ids[i], ids[i - 1])``) ends a run.
    A run's head ``run[0]`` is its minimum, and Runs is ``len(runs)``.
    """
    ids = list(seq)
    if not ids:
        raise EmptyInput("run decomposition of empty input")
    idx = np.array(ids, dtype=np.intp)
    descents = ledger.less_batch(idx[1:], idx[:-1])
    starts = [0, *(np.flatnonzero(descents) + 1).tolist()]
    return [ids[s:e] for s, e in zip(starts, starts[1:] + [len(ids)])]


# strict upper triangle: mask[i, j] is set where position i precedes j
_UPPER = np.triu(np.ones((128, 128), dtype=bool), 1)
_BASE_WIDTH = 32


def count_permutation_inversions(perm: np.ndarray) -> int:
    """Inversions of a permutation of 0..n-1 by bottom-up merging of rows.

    A permutation of at most 128 values is counted whole, by one pairwise
    comparison under the strict-upper-triangle mask (at n = 100 about three
    times faster than 8-wide blocks and four merge levels).  A longer one goes
    into an int32 array (int64 when 2n+1 does not fit), padded to a power of
    two with the sentinel n.  Sentinels only follow real values and are equal
    to each other, so no pair involving one is an inversion.  The array is cut
    into blocks of 32 and stored one column per block, so that the pairs d
    apart within every block are two contiguous slices: one compare per
    offset d = 1..31 counts them all (at n = 2^17 this base step takes about
    0.6 ms and at most 128 KB at a time, where one 32x32 pairwise cube over
    all blocks took 2.3 ms and 4 MB).  Then each level pairs two sorted
    halves of width w into a row of 2w tags ``(value << 1) | half`` and sorts
    the rows; equal values (only sentinels) put the left half first.  In a row, the j-th right-half tag at
    position p follows p - j left-half values, so the other w - (p - j) left
    values exceed it; over a row that sums to (3w^2 - w)/2 minus the right
    tags' positions.  See Knuth, TAOCP Vol. 3, 5.1.1.
    """
    n = int(perm.size)
    if n <= _UPPER.shape[0]:
        return int(np.count_nonzero((perm[:, None] > perm) & _UPPER[:n, :n]))
    padded = 1 << (n - 1).bit_length()
    dtype = np.int32 if 2 * n + 1 <= np.iinfo(np.int32).max else np.int64
    a = np.full(padded, n, dtype=dtype)
    a[:n] = perm
    w = _BASE_WIDTH
    blocks = padded // w
    cols = a.reshape(blocks, w).T.ravel()  # position i of block b at i*blocks + b
    inv = 0
    for end in range(padded - blocks, 0, -blocks):  # offsets d = 1..w-1
        inv += int(np.count_nonzero(cols[:end] > cols[padded - end :]))
    a.reshape(-1, w).sort(axis=1)
    a <<= 1
    while w < padded:
        rows = a.reshape(-1, 2 * w)
        rows[:, w:] |= 1
        rows.sort(axis=1)
        # products in the tags' dtype, summed in int64: a row's right-tag
        # positions add up to as much as (3w^2 - w)/2, past int32 once 2w
        # reaches 2^17
        right_pos = int(((rows & 1) * np.arange(2 * w, dtype=a.dtype)).sum(dtype=np.int64))
        inv += rows.shape[0] * (3 * w * w - w) // 2 - right_pos
        a &= ~1
        w *= 2
    return inv


def min_by_runs(ledger: ComparisonLedger, seq: Sequence[int]) -> int:
    """Scan for runs, then a knockout tournament on the run heads.

    Per-element fragility <= 2 (scan) + ceil(log2 Runs) (tournament rounds).
    """
    with ledger.in_phase(PHASE_SCAN):
        runs = count_runs(ledger, seq)
    with ledger.in_phase(PHASE_TOURNAMENT):
        return tournament_min(ledger, [run[0] for run in runs])


def extract_sorted_run(
    ledger: ComparisonLedger, seq: Sequence[int]
) -> tuple[list[int], list[int]]:
    """One scan with a marked stack; returns ``(R, I)``: the ascending run R
    left on the stack, in input order, and the removed elements I, in the
    order of their removal.

    Each scanned element is compared once with the stack top.  A top element
    collects a mark per inversion charged to it; at two marks it is popped
    into I and the surplus mark moves to the new top.  |I| <= 2*Inv and no
    element participates in more than four comparisons.
    """
    ids = list(seq)
    if not ids:
        raise EmptyInput("extraction from empty input")
    stack: list[int] = []
    marks: list[int] = []  # marks[i] belongs to stack[i]
    removed: list[int] = []
    for e in ids:
        if not stack or ledger.less(stack[-1], e):
            stack.append(e)
            marks.append(0)
            continue
        # e inverts with the top: e goes to I, the top gets a mark
        removed.append(e)
        marks[-1] += 1
        while marks and marks[-1] == 2:
            removed.append(stack.pop())
            marks.pop()
            # one mark accounts for the pop; the other moves to the new top
            if marks:
                marks[-1] += 1
    return stack, removed


def min_by_inv(
    ledger: ComparisonLedger,
    seq: Sequence[int],
    info: Optional[dict] = None,
) -> int:
    """Extract (R, I), tournament over I, final compare with R's head.

    If ``info`` is given it receives ``I_size``, the number of removals.
    """
    with ledger.in_phase(PHASE_EXTRACT):
        R, I = extract_sorted_run(ledger, seq)
    if info is not None:
        info["I_size"] = len(I)
    if not I:
        return R[0]
    with ledger.in_phase(PHASE_TOURNAMENT):
        winner = tournament_min(ledger, I)
        if not R:
            return winner
        return winner if ledger.less(winner, R[0]) else R[0]


def median_two_runs(
    ledger: ComparisonLedger,
    run1: Sequence[int],
    run2: Sequence[int],
) -> int:
    """Lower median of the union of two ascending runs in O(1) fragility.

    The runs are indexed 0 (``run1``) and 1 (``run2``), each with a live
    half-open window ``[lo[i], hi[i])``.  Each step compares the middles of
    the two windows and discards equally many elements certainly below and
    certainly above the median, one chunk from an end of each window; middles
    are fresh elements every time.  The base case sorts a window of at most
    five candidates around the target rank.
    """
    runs = (list(run1), list(run2))
    if not runs[0] and not runs[1]:
        raise EmptyInput("median of empty union")
    lo = [0, 0]
    hi = [len(runs[0]), len(runs[1])]
    while True:
        size = [hi[0] - lo[0], hi[1] - lo[1]]
        s = int(size[1] < size[0])  # the shorter window; a tie picks run 0
        l = 1 - s
        if size[s] <= 2:
            break
        h = (size[s] - 1) // 2
        if ledger.less(runs[s][lo[s] + h], runs[l][lo[l] + (size[l] - 1) // 2]):
            # front of the short window is below the median, back of the long above
            lo[s] += h
            hi[l] -= h
        else:
            hi[s] -= h
            lo[l] += h
    # base case: the target sits in a window of <= 5 candidates
    r = (size[0] + size[1] - 1) // 2
    skip = max(0, r - size[s])  # long-window elements certainly below rank r
    longw = runs[l][lo[l] + skip : lo[l] + min(size[l], r + 1)]
    ordered = network_sort(ledger, runs[s][lo[s] : hi[s]] + longw)
    return ordered[r - skip]


def median_by_runs(
    ledger: ComparisonLedger,
    seq: Sequence[int],
    log: Optional[list] = None,
) -> int:
    """Lower median with per-element cost driven by the number of runs.

    Short runs (below 7*ceil(log2 n) elements) are parked in a side pool; a
    long run stays live as a window ``[run, lo, hi]``.  In round k, every
    live run is probed at each end at offset ``k mod L`` (L = ceil(log2 n))
    from the start of a block of L known to have a constant fraction of the
    run on either side.  The comparator network orders the low probes and
    the high probes, and the round discards equally many elements certainly
    below and certainly above the median, none of which it compares.
    Once few elements remain, the survivors plus the pool are handed to the
    network-sort median.  If ``log`` is given, each round appends its
    ``(removed_low, removed_high)`` lists to it.
    """
    ids = list(seq)
    n = len(ids)
    if n == 0:
        raise EmptyInput("median of empty input")
    if n == 1:
        return ids[0]
    L = max(1, ceil_log2(n))
    with ledger.in_phase(PHASE_SCAN):
        runs = count_runs(ledger, ids)
    if 4 * len(runs) * L >= n // 2:
        with ledger.in_phase(PHASE_FINAL):
            return small_median(ledger, ids)

    live = [[run, 0, len(run)] for run in runs]
    pool: list[int] = []
    threshold = 64 * len(runs) * L
    rnd = 0
    while True:
        # park runs that are (or have become) short
        for run, lo, hi in live:
            if hi - lo < 7 * L:
                pool.extend(run[lo:hi])
        live = [w for w in live if w[2] - w[1] >= 7 * L]
        N = sum(hi - lo for _, lo, hi in live)
        if N <= threshold or not live:
            break

        # at each end, (b-1)*L elements lie beyond the block probed
        owner = {}  # probe -> (window, its size, its margin)
        probes = ([], [])
        for w in live:
            run, lo, hi = w
            b = max(2, -(-(hi - lo) // (7 * L)))  # ceil, clamped off the edge
            for end, start in enumerate((lo + (b - 1) * L, hi - b * L)):
                x = run[start + rnd % L]
                owner[x] = (w, hi - lo, (b - 1) * L)
                probes[end].append(x)
        rnd += 1
        with ledger.in_phase(PHASE_PARTITION_SORT):
            orders = [network_sort(ledger, p) for p in probes]
        orders[1].reverse()  # largest high probe first
        # per end: the probes whose predecessors' runs sum to < N/8 elements
        chosen = ([], [])
        for end, order in enumerate(orders):
            total = 0
            for x in order:
                if total >= N / 8:
                    break
                chosen[end].append(x)
                total += owner[x][1]
        m = min(sum(owner[x][2] for x in xs) for xs in chosen)
        if m == 0:
            break  # no certified removals available; finish on what remains
        removed = ([], [])
        for end, xs in enumerate(chosen):
            remaining = m
            for x in xs:
                w, _, margin = owner[x]
                take = min(margin, remaining)
                remaining -= take
                edge = w[1 + end]
                moved = edge - take if end else edge + take  # lo moves up, hi down
                removed[end].extend(w[0][min(edge, moved) : max(edge, moved)])
                w[1 + end] = moved
        if log is not None:
            log.append(removed)

    survivors = pool + [e for run, lo, hi in live for e in run[lo:hi]]
    with ledger.in_phase(PHASE_FINAL):
        return small_median(ledger, survivors)


def median_by_inv(ledger: ComparisonLedger, seq: Sequence[int]) -> int:
    """Extract (R, I), network-sort I, then the two-run median."""
    ids = list(seq)
    if not ids:
        raise EmptyInput("median of empty input")
    with ledger.in_phase(PHASE_EXTRACT):
        R, I = extract_sorted_run(ledger, ids)
    if not I:
        return R[(len(R) - 1) // 2]
    with ledger.in_phase(PHASE_PARTITION_SORT):
        sorted_i = network_sort(ledger, I)
    with ledger.in_phase(PHASE_FINAL):
        return median_two_runs(ledger, R, sorted_i)


def _column_search(
    ledger: ComparisonLedger,
    e: int,
    col: list[int],
    j0: int,
) -> int:
    """Largest column index whose element is < e, or -1.

    Doubling steps outward from j0, then binary search.  No column element is
    compared with e twice: the doubling probes j0 +- 2^i are distinct, and the
    binary search probes only strictly between two bounds already probed.
    """

    def below(j: int) -> bool:
        return ledger.less(col[j], e)

    n = len(col)
    if n == 0:
        return -1
    j0 = min(max(j0, 0), n - 1)
    # d points from j0 toward the answer: double until a probe lands past it
    d = 1 if below(j0) else -1
    step = 1
    while 0 <= j0 + d * step < n and below(j0 + d * step) == (d > 0):
        step *= 2
    lo, hi = sorted((j0 + d * (step // 2), min(max(j0 + d * step, -1), n)))
    # invariant: col[lo] < e (or lo == -1), col[hi] >= e (or hi == n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo


def sort_by_inv(ledger: ComparisonLedger, seq: Sequence[int]) -> list[int]:
    """Full sort with per-element cost driven by the inversion count.

    After the stack extraction, R is split into blocks of size |I|; the i-th
    removed element searches the column of i-th block entries outward from
    its origin block, which pins its position to a two-block window.  Blocks
    are then fixed up left to right: sort the associated elements, gallop-merge
    them in, and defer the tail overlapping the next block.
    """
    ids = list(seq)
    if not ids:
        raise EmptyInput("sort of empty input")
    with ledger.in_phase(PHASE_EXTRACT):
        R, I = extract_sorted_run(ledger, ids)
    if not I:
        return list(R)
    if not R:
        with ledger.in_phase(PHASE_FINAL):
            return network_sort(ledger, I)
    s = len(I)
    nblocks = -(-len(R) // s)
    input_pos = {e: p for p, e in enumerate(ids)}
    r_input_pos = [input_pos[e] for e in R]  # ascending (scan order)

    assoc: list[list[int]] = [[] for _ in range(nblocks)]
    for i, e in enumerate(I):
        col = R[i::s]  # the i-th entry of every block
        # origin block: where the element sat in the input, mapped into R
        p = input_pos[e]
        r0 = max(0, bisect.bisect_right(r_input_pos, p) - 1)
        jp = _column_search(ledger, e, col, r0 // s)
        assoc[min(max(jp, 0), nblocks - 1)].append(e)

    out: list[int] = []
    deferred: list[int] = []
    with ledger.in_phase(PHASE_FINAL):
        for j in range(nblocks):
            block = R[j * s : (j + 1) * s]
            fresh = network_sort(ledger, assoc[j])
            inserted = exponential_merge(ledger, deferred, fresh) if deferred else fresh
            merged = exponential_merge(ledger, block, inserted)
            if j + 1 < nblocks:
                last = block[-1]
                cut = len(merged) - 1
                while merged[cut] != last:
                    cut -= 1
                out.extend(merged[: cut + 1])
                deferred = merged[cut + 1 :]
            else:
                out.extend(merged)
                deferred = []
    return out
