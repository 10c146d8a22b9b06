"""Rank-k selection that protects the selected element.

The recursive half-sampling filter shrinks the candidate set around the rank-k
element before any full pass over the input, so the element eventually
returned usually takes part in few comparisons before the final backend stage.
The exception is a pivot z that is itself the rank-k element: the final filter
then compares it with every other element.  At small k that case is common
enough to dominate the mean; with n = 2^17 and epsilon = 0.25 the mean filter
load on the selected element is about 11361 at k = 2 but 1.51 at k = 4.  The
final stage is pluggable; the default sorts the filtered set with the
comparator network.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import RankOutOfRange
from .ledger import ComparisonLedger
from .primitives import mom_select, network_sort

Backend = Callable[[ComparisonLedger, Sequence[int], int], int]

PHASE_PRE = "select:pre"  # sampling, recursive filtering, pivot choice
PHASE_FILTER = "select:filter"  # building {x <= z} over the whole input
PHASE_BACKEND = "select:backend"


def _filter_at_most(ledger: ComparisonLedger, pool: Sequence[int], z: int) -> np.ndarray:
    """Counted filter {x in pool : x <= z} as an index array; z is kept for free."""
    pool = np.asarray(pool, dtype=np.intp)
    others = pool[pool != z]
    return np.append(others[ledger.less_batch(others, z)], z)


def reset(
    ledger: ComparisonLedger,
    xs: Sequence[int],
    k: int,
    rng: np.random.Generator,
) -> list[int]:
    """Recursive half-sampling filter around the rank-k element.

    Samples half (floor) of the pool per level until k >= |pool|/2 - 1, then
    filters back up through pivots.  Returns the candidates, every element at
    or below the last pivot z: a list of expected size about 2(k+1) that
    always contains the rank-k element of the input, with z last.
    """
    n = len(xs)
    if not (0 <= k < n):
        raise RankOutOfRange(f"k={k} outside [0, {n})")
    # levels are index arrays; only the small back-sets handed to mom_select
    # become lists
    levels = [np.asarray(xs, dtype=np.intp)]
    while len(levels[-1]) > 2 * k + 2:  # recurse until k >= |A|/2 - 1
        cur = levels[-1]
        levels.append(rng.permutation(cur)[: len(cur) // 2])
    back = levels[-1]
    for level in reversed(levels):
        z = mom_select(ledger, back.tolist(), min(k, len(back) - 1))
        # threshold filters get their own phase tag: they are candidate-set
        # construction, same role as building the final filtered set
        with ledger.in_phase(PHASE_FILTER):
            back = _filter_at_most(ledger, level, z)
    return back.tolist()


def backend_network(ledger: ComparisonLedger, ids: Sequence[int], k: int) -> int:
    return network_sort(ledger, list(ids))[k]


def backend_mom(ledger: ComparisonLedger, ids: Sequence[int], k: int) -> int:
    return mom_select(ledger, list(ids), k)

BACKENDS: dict[str, Backend] = {
    "network": backend_network,
    "mom": backend_mom,
}


def select_kth(
    ledger: ComparisonLedger,
    xs: Sequence[int],
    k: int,
    rng: np.random.Generator,
    backend: Backend = backend_network,
    epsilon: float = 0.01,
    info: Optional[dict] = None,
) -> int:
    """Return the rank-k element of xs, a list of ids or an index array.

    The sampled branch runs when k <= n^epsilon and the sample size
    s = floor(n/max(k,1)) exceeds k: a uniform sample of s elements is
    filtered down to a pivot z of sample rank k, and only {x <= z} reaches the
    backend.  A sample of more than k elements puts z at input rank >= k, so
    {x <= z} always holds the rank-k element; a smaller sample could not
    promise that (roughly k >= sqrt(n), reachable only for epsilon > 1/2), so
    every other case runs the backend on the whole input.  The pool stays an
    index array until the backend, which gets a list; the result is an
    ``int`` on every branch.  Comparison counts are tagged with pre-filter and
    backend phases.  If `info` is given it is filled with the branch taken and
    the sizes of the candidate set and of the filtered set.
    """
    pool = np.asarray(xs, dtype=np.intp)
    n = len(pool)
    if not (0 <= k < n):
        raise RankOutOfRange(f"k={k} outside [0, {n})")
    if n == 1:
        if info is not None:
            info.update(branch="trivial", candidate_size=0, filtered_size=1)
        return int(pool[0])
    size = n // max(k, 1)
    if k <= n**epsilon and size > k:
        with ledger.in_phase(PHASE_PRE):
            picks = rng.permutation(n)[:size]
            cand = reset(ledger, pool[picks], k, rng)
            z = mom_select(ledger, cand, k)
        with ledger.in_phase(PHASE_FILTER):
            filtered = _filter_at_most(ledger, pool, z).tolist()
        if info is not None:
            info.update(branch="sampled", candidate_size=len(cand), filtered_size=len(filtered))
        with ledger.in_phase(PHASE_BACKEND):
            return backend(ledger, filtered, k)
    if info is not None:
        info.update(branch="direct", candidate_size=0, filtered_size=n)
    with ledger.in_phase(PHASE_BACKEND):
        return backend(ledger, pool.tolist(), k)
