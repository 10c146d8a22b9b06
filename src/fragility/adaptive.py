"""Algorithms adaptive to existing order (runs and inversions).

A run is a maximal consecutive ascending subsequence; Runs is their number.
Inv is the number of out-of-order pairs.  The minimum, median and sorting
routines here spend per-element comparisons proportional to the logarithm of
the disorder measure rather than of n, up to the squared-log factors of the
comparator-network building blocks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
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


@dataclass
class RunDecomposition:
    """Partition of the input into maximal ascending runs."""

    runs: list[tuple[int, int]]  # (start index, length)
    heads: list[int]  # first element of each run (its minimum)

    @property
    def count(self) -> int:
        return len(self.runs)


def count_runs(ledger: ComparisonLedger, seq: Sequence[int]) -> RunDecomposition:
    """One scan; each element is compared only with its two neighbours."""
    ids = list(seq)
    if not ids:
        raise EmptyInput("run decomposition of empty input")
    runs: list[tuple[int, int]] = []
    heads: list[int] = []
    start = 0
    for i in range(1, len(ids)):
        if ledger.less(ids[i], ids[i - 1]):  # strict descent ends the run
            runs.append((start, i - start))
            heads.append(ids[start])
            start = i
    runs.append((start, len(ids) - start))
    heads.append(ids[start])
    return RunDecomposition(runs=runs, heads=heads)


# strict upper triangle: mask[i, j] is set where position i precedes j
_UPPER = np.triu(np.ones((128, 128), dtype=bool), 1)
_BASE_WIDTH = 32


def count_permutation_inversions(perm: np.ndarray) -> int:
    """Inversions of a permutation of 0..n-1 by bottom-up merging of rows.

    The values go into an int32 array (int64 when 2n+1 does not fit), padded
    to a power of two with the sentinel n.  Sentinels only follow real values
    and are equal to each other, so no pair involving one is an inversion.

    First, one pairwise count under the strict-upper-triangle mask covers
    every block of 32 positions (at n = 2^17 the harness oracle took 15.8 ms
    with it, 20.7 ms with 8- or 16-wide blocks and 17.8 ms with 64), or
    the whole padded array when it holds at most 128 (at n = 100 that is about
    three times faster than 8-wide blocks and four merge levels).  Then each
    level pairs two sorted halves of width w into a row
    of 2w tags ``(value << 1) | half`` and sorts the rows; equal values (only
    sentinels) put the left half first.  In a row, the j-th right-half tag at
    position p follows p - j left-half values, so the other w - (p - j) left
    values exceed it; over a row that sums to (3w^2 - w)/2 minus the right
    tags' positions.  See Knuth, TAOCP Vol. 3, 5.1.1.
    """
    n = int(perm.size)
    if n < 2:
        return 0
    padded = 1 << (n - 1).bit_length()
    dtype = np.int32 if 2 * n + 1 <= np.iinfo(np.int32).max else np.int64
    a = np.full(padded, n, dtype=dtype)
    a[:n] = perm
    w = padded if padded <= _UPPER.shape[0] else _BASE_WIDTH
    cols = a.reshape(-1, w).T.copy()  # one column per block: long inner loops
    above = cols[:, None] > cols
    above &= _UPPER[:w, :w, None]
    inv = int(np.count_nonzero(above))
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
        dec = count_runs(ledger, seq)
    with ledger.in_phase(PHASE_TOURNAMENT):
        return tournament_min(ledger, dec.heads)


@dataclass
class InversionExtract:
    """Stack-scan decomposition into an ascending run R and removals I."""

    R: list[int]
    I: list[int]
    marks_used: int


def extract_sorted_run(ledger: ComparisonLedger, seq: Sequence[int]) -> InversionExtract:
    """One scan with a marked stack; leaves an ascending run R, removes I.

    Each scanned element is compared once with the stack top.  A top element
    collects a mark per inversion charged to it; at two marks it is popped
    into I and the surplus mark moves to the new top.  |I| <= 2*Inv and no
    element participates in more than four comparisons.
    """
    ids = list(seq)
    if not ids:
        raise EmptyInput("extraction from empty input")
    stack: list[int] = [ids[0]]
    marks: dict[int, int] = {ids[0]: 0}
    removed: list[int] = []
    marks_used = 0
    for e in ids[1:]:
        if not stack:
            stack.append(e)
            marks[e] = 0
            continue
        top = stack[-1]
        if ledger.less(top, e):
            stack.append(e)
            marks[e] = 0
            continue
        # e inverts with top: e goes to I, top gets a mark
        removed.append(e)
        marks[top] += 1
        marks_used += 1
        while stack and marks[stack[-1]] == 2:
            popped = stack.pop()
            removed.append(popped)
            del marks[popped]
            # one mark accounts for the pop; the other moves to the new top
            if stack:
                marks[stack[-1]] += 1
                marks_used += 1
    return InversionExtract(R=stack, I=removed, marks_used=marks_used)


def min_by_inv(
    ledger: ComparisonLedger,
    seq: Sequence[int],
    info: Optional[dict] = None,
) -> int:
    """Extract (R, I), tournament over I, final compare with R's head.

    If ``info`` is given it receives ``I_size``, the number of removals.
    """
    with ledger.in_phase(PHASE_EXTRACT):
        ext = extract_sorted_run(ledger, seq)
    if info is not None:
        info["I_size"] = len(ext.I)
    if not ext.I:
        return ext.R[0]
    with ledger.in_phase(PHASE_TOURNAMENT):
        winner = tournament_min(ledger, ext.I)
        if not ext.R:
            return winner
        head = ext.R[0]
        return winner if ledger.less(winner, head) else head


def median_two_runs(
    ledger: ComparisonLedger,
    run1: Sequence[int],
    run2: Sequence[int],
) -> int:
    """Lower median of the union of two ascending runs in O(1) fragility.

    Each step compares the middles of the live windows and discards equally
    many elements certainly below and certainly above the median, one chunk
    from an end of each run; middles are fresh elements every time.  The base
    case sorts a window of at most five candidates around the target rank.
    """
    a = list(run1)
    b = list(run2)
    if not a and not b:
        raise EmptyInput("median of empty union")
    alo, ahi = 0, len(a)
    blo, bhi = 0, len(b)
    while True:
        na = ahi - alo
        nb = bhi - blo
        if min(na, nb) <= 2:
            break
        if na <= nb:
            s, slo, shi, ns = a, alo, ahi, na
            l, llo, lhi, nl = b, blo, bhi, nb
            short_is_a = True
        else:
            s, slo, shi, ns = b, blo, bhi, nb
            l, llo, lhi, nl = a, alo, ahi, na
            short_is_a = False
        h = (ns - 1) // 2
        x = s[slo + (ns - 1) // 2]
        y = l[llo + (nl - 1) // 2]
        if ledger.less(x, y):
            # front of the short run is below the median, back of the long above
            slo += h
            lhi -= h
        else:
            shi -= h
            llo += h
        if short_is_a:
            alo, ahi, blo, bhi = slo, shi, llo, lhi
        else:
            blo, bhi, alo, ahi = slo, shi, llo, lhi
    # base case: the target sits in a window of <= 5 candidates
    na = ahi - alo
    nb = bhi - blo
    if na <= nb:
        short = a[alo:ahi]
        longw = b[blo:bhi]
    else:
        short = b[blo:bhi]
        longw = a[alo:ahi]
    r = (na + nb - 1) // 2
    ns = len(short)
    lo = max(0, r - ns)
    hi = min(len(longw), r + 1)
    candidates = short + longw[lo:hi]
    ordered = network_sort(ledger, candidates)
    return ordered[r - lo]


@dataclass
class _LiveRun:
    elems: list[int]
    lo: int
    hi: int
    low_cursor: int = 0
    high_cursor: int = 0

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass
class RemovalStep:
    """Audit record of one balanced-removal step (for post-hoc rank checks)."""

    live_before: int
    removed_low: list[int] = field(default_factory=list)
    removed_high: list[int] = field(default_factory=list)


def median_by_runs(
    ledger: ComparisonLedger,
    seq: Sequence[int],
    log: Optional[list] = None,
) -> int:
    """Lower median with per-element cost driven by the number of runs.

    Short runs (below 7*ceil(log2 n) elements) are parked in a side pool.
    Each round selects one partitioning element per long run from a block
    known to have a constant fraction of the run on either side, orders the
    partitioning elements with the comparator network, and discards equally
    many elements certainly below and certainly above the median — all
    without touching the discarded elements.  Once few elements remain, the
    survivors plus the pool are handed to the network-sort median.
    """
    ids = list(seq)
    n = len(ids)
    if n == 0:
        raise EmptyInput("median of empty input")
    if n == 1:
        return ids[0]
    L = max(1, ceil_log2(n))
    with ledger.in_phase(PHASE_SCAN):
        dec = count_runs(ledger, ids)
    runs_count = dec.count
    if 4 * runs_count * L >= n // 2:
        with ledger.in_phase(PHASE_FINAL):
            return small_median(ledger, ids)

    live = [_LiveRun(elems=ids[s : s + ln], lo=0, hi=ln) for s, ln in dec.runs]
    pool: list[int] = []
    short_len = 7 * L
    threshold = 64 * runs_count * L

    while True:
        # park runs that are (or have become) short
        keep = []
        for r in live:
            if r.size < short_len:
                pool.extend(r.elems[r.lo : r.hi])
            else:
                keep.append(r)
        live = keep
        N = sum(r.size for r in live)
        if N <= threshold or not live:
            break

        step = RemovalStep(live_before=N)

        def pick(run: _LiveRun, from_low: bool) -> tuple[int, int]:
            """Partitioning element and the count of elements beyond it."""
            b = max(2, -(-run.size // (7 * L)))  # ceil, clamped off the edge
            if from_low:
                start = run.lo + (b - 1) * L
                off = run.low_cursor % L
                run.low_cursor += 1
            else:
                start = run.hi - b * L
                off = run.high_cursor % L
                run.high_cursor += 1
            return run.elems[start + off], (b - 1) * L

        low_info = {}
        high_info = {}
        low_elems = []
        high_elems = []
        for run in live:
            x, margin = pick(run, from_low=True)
            low_info[x] = (run, margin)
            low_elems.append(x)
            x, margin = pick(run, from_low=False)
            high_info[x] = (run, margin)
            high_elems.append(x)
        with ledger.in_phase(PHASE_PARTITION_SORT):
            low_order = network_sort(ledger, low_elems)
            high_order = network_sort(ledger, high_elems)
        high_order.reverse()  # largest partitioning element first

        def take_budget(order, info):
            # t = largest index whose predecessors sum to < N/8 elements
            total = 0
            t = 0
            for idx in range(len(order)):
                if total < N / 8:
                    t = idx + 1
                total += info[order[idx]][0].size
            return sum(info[e][1] for e in order[:t]), order[:t]

        cnt_low, low_runs = take_budget(low_order, low_info)
        cnt_high, high_runs = take_budget(high_order, high_info)
        m = min(cnt_low, cnt_high)
        if m == 0:
            break  # no certified removals available; finish on what remains
        remaining = m
        for e in low_runs:
            run, margin = low_info[e]
            take = min(margin, remaining)
            step.removed_low.extend(run.elems[run.lo : run.lo + take])
            run.lo += take
            remaining -= take
            if remaining == 0:
                break
        remaining = m
        for e in high_runs:
            run, margin = high_info[e]
            take = min(margin, remaining)
            step.removed_high.extend(run.elems[run.hi - take : run.hi])
            run.hi -= take
            remaining -= take
            if remaining == 0:
                break
        if log is not None:
            log.append(step)

    survivors = pool + [e for r in live for e in r.elems[r.lo : r.hi]]
    with ledger.in_phase(PHASE_FINAL):
        return small_median(ledger, survivors)


def median_by_inv(ledger: ComparisonLedger, seq: Sequence[int]) -> int:
    """Extract (R, I), network-sort I, then the two-run median."""
    ids = list(seq)
    if not ids:
        raise EmptyInput("median of empty input")
    with ledger.in_phase(PHASE_EXTRACT):
        ext = extract_sorted_run(ledger, ids)
    if not ext.I:
        return ext.R[(len(ext.R) - 1) // 2]
    with ledger.in_phase(PHASE_PARTITION_SORT):
        sorted_i = network_sort(ledger, ext.I)
    with ledger.in_phase(PHASE_FINAL):
        return median_two_runs(ledger, ext.R, sorted_i)


def _column_search(
    ledger: ComparisonLedger,
    e: int,
    col: list[int],
    j0: int,
) -> int:
    """Largest column index whose element is < e, or -1.

    Doubling steps outward from j0, then binary search; outcomes are memoized
    so no column element is compared with e more than once.
    """
    memo: dict[int, bool] = {}

    def below(j: int) -> bool:
        if j not in memo:
            memo[j] = ledger.less(col[j], e)
        return memo[j]

    n = len(col)
    if n == 0:
        return -1
    j0 = min(max(j0, 0), n - 1)
    if below(j0):
        # answer is at or right of j0: double until a non-below probe
        lo, hi = j0, n  # col[lo] < e; col[hi..] unknown/>=
        step = 1
        while lo + step < n and below(lo + step):
            step *= 2
        hi = min(lo + step, n)
        lo = lo + step // 2 if step > 1 else lo
    else:
        # answer is left of j0
        hi = j0
        step = 1
        while j0 - step >= 0 and not below(j0 - step):
            step *= 2
        if j0 - step < 0:
            lo_bound = -1
        else:
            lo_bound = j0 - step
        lo = lo_bound
        hi = j0 - step // 2 if step > 1 else j0
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
        ext = extract_sorted_run(ledger, ids)
    R, I = ext.R, ext.I
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
        col = [R[j * s + i] for j in range(nblocks) if j * s + i < len(R)]
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
