"""Predecessor searchers, rotating offsets, and amortized accounting."""

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility import search
from fragility.ledger import new_session
from fragility.primitives import ceil_log2
from fragility.search import (
    AMORTIZED_BUDGET_PER_DISTANCE,
    budget_per_element,
    build_offset_structure,
    distance_to,
    exp_search,
    exp_search_query_budget,
    make_view,
    offset_search,
    potential_audit,
    randomized_search,
)


def predecessor_oracle(array, query) -> int:
    """The query payload's rank in the sorted array payloads: how many lie
    strictly below it."""
    return bisect_left(array, query)


def _session(array_values, query_values):
    """Session whose first len(array_values) ids form the sorted view."""
    ledger, ids = new_session(list(array_values) + list(query_values))
    n = len(array_values)
    return ledger, make_view(ids[:n]), ids[n:]


array_and_queries = st.tuples(
    st.lists(st.integers(0, 200), min_size=1, max_size=80).map(sorted),
    st.lists(st.integers(-5, 205), min_size=1, max_size=20),
)


def test_distance_to_trivials():
    # query sits after its predecessor; distance is inclusive, minimum 1
    assert distance_to(0, 0) == 1
    assert distance_to(4, 3) == 1
    assert distance_to(4, 0) == 4
    assert distance_to(4, 9) == 6
    # the same formula on arrays, as budget_per_element uses it
    assert distance_to(np.array([[4], [0]]), np.arange(6)).tolist() == [
        [4, 3, 2, 1, 1, 2], [1, 2, 3, 4, 5, 6]]


@settings(max_examples=100, deadline=None)
@given(data=array_and_queries)
def test_exp_search_matches_oracle(data):
    array, queries = data
    ledger, view, qids = _session(array, queries)
    for q, value in zip(qids, queries):
        assert exp_search(ledger, view, q) == predecessor_oracle(array, value)


def test_exp_search_query_budget_sweep_small():
    n = 256
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * k - 1 for k in range(1, n + 1)]
    )
    for k, q in enumerate(qids, start=1):
        before = int(ledger.counts[q])
        assert exp_search(ledger, view, q) == k
        assert int(ledger.counts[q]) - before <= exp_search_query_budget(k)


@settings(max_examples=60, deadline=None)
@given(data=array_and_queries)
def test_offset_search_matches_oracle(data):
    array, queries = data
    ledger, view, qids = _session(array, queries)
    offsets = build_offset_structure(view)
    for q, value in zip(qids, queries):
        assert offset_search(ledger, view, offsets, q, []) == predecessor_oracle(array, value)


def test_offset_structure_position_and_slots():
    ledger, view, _ = _session(list(range(16)), [3])
    offsets = build_offset_structure(view)
    assert len(offsets[0]) == 16 and len(offsets) - 1 == 4
    assert sum(len(row) for row in offsets) == 16 + 8 + 4 + 2 + 1
    # n = 17 pads to 32: rank 5 gets one slot, each rank a partial last interval
    assert [len(row) for row in build_offset_structure(tuple(range(17)))] == [17, 9, 5, 3, 2, 1]
    assert build_offset_structure((7,)) == [[0]]


def test_offsets_rotate_between_identical_searches():
    """The same query probes different array positions on repetition."""
    n = 256
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [n] * 4  # same value, rank n/2 each time
    )
    offsets = build_offset_structure(view)
    probe_sets = []
    for q in qids:
        counts_before = ledger.counts[:n].copy()
        offset_search(ledger, view, offsets, q, [])
        probe_sets.append(tuple(np.flatnonzero(ledger.counts[:n] - counts_before).tolist()))
    assert len(set(probe_sets)) > 1


def test_offset_search_uses_each_rank_boundedly():
    n = 1024
    rng = np.random.default_rng(0)
    ranks = rng.integers(0, n + 1, size=500)
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * int(r) - 1 for r in ranks]
    )
    offsets = build_offset_structure(view)
    for q, k in zip(qids, ranks):
        ranks_used = []
        assert offset_search(ledger, view, offsets, q, ranks_used) == int(k)
        assert max((ranks_used.count(r) for r in set(ranks_used)), default=0) <= 7


def test_potential_audit_starts_at_full_debt():
    ledger, view, _ = _session(list(range(8)), [0])
    offsets = build_offset_structure(view)
    # position 0 with all offsets 0: t = 0 at every rank
    assert potential_audit(offsets, 0) == 3
    # position 5: t = 1 at rank 1 and rank 2, t = 5 at rank 3
    assert potential_audit(offsets, 5) == 1 / 2 + 3 / 4 + 3 / 8


def test_per_search_amortized_inequality_all_elements():
    """actual(y) + phi_after - phi_before <= 112/d(x, y) for every y, every search."""
    n = 128
    rng = np.random.default_rng(1)
    ranks = rng.integers(0, n + 1, size=300)
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * int(r) - 1 for r in ranks]
    )
    offsets = build_offset_structure(view)
    for q in qids:
        phi_before = [potential_audit(offsets, pos) for pos in range(n)]
        counts_before = ledger.counts[:n].copy()
        rank = offset_search(ledger, view, offsets, q, [])
        delta = ledger.counts[:n] - counts_before
        for pos in range(n):
            actual = int(delta[pos])
            dphi = potential_audit(offsets, pos) - phi_before[pos]
            budget = AMORTIZED_BUDGET_PER_DISTANCE / distance_to(rank, pos)
            assert actual + dphi <= budget + 1e-9, (pos, actual, dphi, budget)


def test_amortized_check_agrees_with_trace_counts():
    """The amortized budget covers the ledger's count of every array element."""
    n = 64
    rng = np.random.default_rng(2)
    ranks = rng.integers(0, n + 1, size=200)
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * int(r) - 1 for r in ranks]
    )
    offsets = build_offset_structure(view)
    found = [offset_search(ledger, view, offsets, q, []) for q in qids]
    slack = budget_per_element(offsets, found) - ledger.counts[:n]
    assert (slack >= 0).all(), slack.min()


def test_budget_per_element_equals_the_per_position_sum():
    """The vectorized budget is bit-identical to summing 112/d search by search."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 301))
        ranks = rng.integers(0, n + 1, size=int(rng.integers(0, 401)))
        ledger, view, qids = _session(
            [2 * i for i in range(n)], [2 * int(r) - 1 for r in ranks]
        )
        offsets = build_offset_structure(view)
        found = [offset_search(ledger, view, offsets, q, []) for q in qids]
        budget = budget_per_element(offsets, found)
        for pos in {0, n - 1, *rng.integers(0, n, size=8).tolist()}:
            expected = float(ceil_log2(n))
            for rank in found:
                expected += AMORTIZED_BUDGET_PER_DISTANCE / distance_to(rank, pos)
            assert budget[pos] == expected, (n, pos)


def test_budget_per_element_does_not_depend_on_the_batching(monkeypatch):
    """One search per numpy pass, or a few, gives the floats of one pass over all."""
    n = 37
    offsets = build_offset_structure(tuple(range(n)))
    ranks = np.random.default_rng(6).integers(0, n + 1, size=500).tolist()
    whole = budget_per_element(offsets, ranks)
    for cells in (1, n, 5 * n + 3):
        monkeypatch.setattr(search, "_BUDGET_CELLS", cells)
        assert budget_per_element(offsets, ranks).tobytes() == whole.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=array_and_queries, seed=st.integers(0, 2**32 - 1))
def test_randomized_search_matches_oracle(data, seed):
    array, queries = data
    ledger, view, qids = _session(array, queries)
    rng = np.random.default_rng(seed)
    for q, value in zip(qids, queries):
        assert randomized_search(ledger, view, q, rng) == predecessor_oracle(array, value)


def test_searchers_agree_on_duplicate_array_values():
    array = [1, 1, 3, 3, 3, 7]
    queries = [0, 1, 2, 3, 4, 7, 8]
    ledger, view, qids = _session(array, queries)
    offsets = build_offset_structure(view)
    rng = np.random.default_rng(0)
    for q, value in zip(qids, queries):
        want = predecessor_oracle(array, value)
        assert exp_search(ledger, view, q) == want
        assert offset_search(ledger, view, offsets, q, []) == want
        assert randomized_search(ledger, view, q, rng) == want
