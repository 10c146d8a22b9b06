"""Predecessor searchers, rotating offsets, and amortized accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility.errors import UnknownElement
from fragility.ledger import new_session
from fragility.primitives import ceil_log2
from fragility.search import (
    AMORTIZED_BUDGET_PER_DISTANCE,
    PredecessorResult,
    SearchTrace,
    budget_per_element,
    build_offset_structure,
    distance_to,
    exp_search,
    exp_search_query_budget,
    make_view,
    offset_search,
    potential_audit,
    predecessor_oracle,
    randomized_search,
)


def _session(array_values, query_values):
    """Session whose first len(array_values) ids form the sorted view."""
    ledger, ids = new_session(list(array_values) + list(query_values))
    n = len(array_values)
    return ledger, make_view(ids[:n]), ids[n:]


array_and_queries = st.tuples(
    st.lists(st.integers(0, 200), min_size=1, max_size=80).map(sorted),
    st.lists(st.integers(-5, 205), min_size=1, max_size=20),
)


def test_predecessor_result_rank():
    assert PredecessorResult(index=None).rank == 0
    assert PredecessorResult(index=None).absent
    assert PredecessorResult(index=4).rank == 5


def test_distance_to_trivials():
    # query sits after its predecessor; distance is inclusive, minimum 1
    assert distance_to(PredecessorResult(index=None), 0) == 1
    assert distance_to(PredecessorResult(index=3), 3) == 1
    assert distance_to(PredecessorResult(index=3), 0) == 4
    assert distance_to(PredecessorResult(index=3), 9) == 6


@settings(max_examples=100, deadline=None)
@given(data=array_and_queries)
def test_exp_search_matches_oracle(data):
    array, queries = data
    ledger, view, qids = _session(array, queries)
    for q in qids:
        assert exp_search(ledger, view, q) == predecessor_oracle(ledger, view, q)


def test_exp_search_query_budget_sweep_small():
    n = 256
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * k - 1 for k in range(1, n + 1)]
    )
    for k, q in enumerate(qids, start=1):
        before = int(ledger.counts[q])
        res = exp_search(ledger, view, q)
        assert res.rank == k
        assert int(ledger.counts[q]) - before <= exp_search_query_budget(k)


@settings(max_examples=60, deadline=None)
@given(data=array_and_queries)
def test_offset_search_matches_oracle(data):
    array, queries = data
    ledger, view, qids = _session(array, queries)
    structure = build_offset_structure(view)
    for q in qids:
        assert offset_search(ledger, structure, q) == predecessor_oracle(ledger, view, q)


def test_offset_structure_position_and_slots():
    ledger, view, _ = _session(list(range(16)), [3])
    s = build_offset_structure(view)
    assert s.n_padded == 16 and s.max_rank == 4
    assert s.position_of(view.ids[5]) == 5
    with pytest.raises(UnknownElement):
        s.position_of(99)
    assert sum(len(row) for row in s.offsets) == 16 + 8 + 4 + 2 + 1


def test_offsets_rotate_between_identical_searches():
    """The same query probes different array positions on repetition."""
    n = 256
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [n] * 4  # same value, rank n/2 each time
    )
    structure = build_offset_structure(view)
    probe_sets = []
    for q in qids:
        trace = SearchTrace(n=n, n_padded=structure.n_padded)
        offset_search(ledger, structure, q, trace=trace)
        probe_sets.append(tuple(trace.searches[-1]["compared"]))
    assert len(set(probe_sets)) > 1


def test_offset_search_uses_each_rank_boundedly():
    n = 1024
    rng = np.random.default_rng(0)
    ranks = rng.integers(0, n + 1, size=500)
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * int(r) - 1 for r in ranks]
    )
    structure = build_offset_structure(view)
    trace = SearchTrace(n=n, n_padded=structure.n_padded)
    for q, k in zip(qids, ranks):
        res = offset_search(ledger, structure, q, trace=trace)
        assert res.rank == int(k)
    for rec in trace.searches:
        ranks_used = rec["ranks"]
        assert max((ranks_used.count(r) for r in set(ranks_used)), default=0) <= 7


def test_potential_audit_starts_at_full_debt():
    ledger, view, _ = _session(list(range(8)), [0])
    s = build_offset_structure(view)
    audit = potential_audit(s, view.ids[0])
    # element at position 0 with all offsets 0: t = 0 at every rank
    assert audit.per_rank == {1: 0, 2: 0, 3: 0}
    assert float(audit.phi) == 3.0


def test_per_search_amortized_inequality_all_elements():
    """actual(y) + phi_after - phi_before <= 112/d(x, y) for every y, every search."""
    n = 128
    rng = np.random.default_rng(1)
    ranks = rng.integers(0, n + 1, size=300)
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * int(r) - 1 for r in ranks]
    )
    s = build_offset_structure(view)
    for q in qids:
        phi_before = [potential_audit(s, y).phi for y in view.ids]
        counts_before = ledger.counts[:n].copy()
        res = offset_search(ledger, s, q)
        delta = ledger.counts[:n] - counts_before
        for pos, y in enumerate(view.ids):
            actual = int(delta[pos])
            dphi = float(potential_audit(s, y).phi - phi_before[pos])
            budget = AMORTIZED_BUDGET_PER_DISTANCE / distance_to(res, pos)
            assert actual + dphi <= budget + 1e-9, (pos, actual, dphi, budget)


def test_amortized_check_agrees_with_trace_counts():
    """The trace's probed positions tally to the ledger's array counts, and the
    amortized budget covers every one of them."""
    n = 64
    rng = np.random.default_rng(2)
    ranks = rng.integers(0, n + 1, size=200)
    ledger, view, qids = _session(
        [2 * i for i in range(n)], [2 * int(r) - 1 for r in ranks]
    )
    s = build_offset_structure(view)
    trace = SearchTrace(n=n, n_padded=s.n_padded)
    for q in qids:
        offset_search(ledger, s, q, trace=trace)
    tally = np.zeros(n, dtype=np.int64)
    for rec in trace.searches:
        np.add.at(tally, rec["compared"], 1)
    assert tally.tolist() == ledger.counts[:n].tolist()
    slack = budget_per_element(trace) - ledger.counts[:n]
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
        s = build_offset_structure(view)
        trace = SearchTrace(n=n, n_padded=s.n_padded)
        for q in qids:
            offset_search(ledger, s, q, trace=trace)
        budget = budget_per_element(trace)
        for pos in {0, n - 1, *rng.integers(0, n, size=8).tolist()}:
            expected = float(ceil_log2(s.n_padded))
            for rec in trace.searches:
                res = PredecessorResult(index=rec["result"])
                expected += AMORTIZED_BUDGET_PER_DISTANCE / distance_to(res, pos)
            assert budget[pos] == expected, (n, pos)


@settings(max_examples=60, deadline=None)
@given(data=array_and_queries, seed=st.integers(0, 2**32 - 1))
def test_randomized_search_matches_oracle(data, seed):
    array, queries = data
    ledger, view, qids = _session(array, queries)
    rng = np.random.default_rng(seed)
    for q in qids:
        assert randomized_search(ledger, view, q, rng) == predecessor_oracle(ledger, view, q)


def test_searchers_agree_on_duplicate_array_values():
    array = [1, 1, 3, 3, 3, 7]
    queries = [0, 1, 2, 3, 4, 7, 8]
    ledger, view, qids = _session(array, queries)
    s = build_offset_structure(view)
    rng = np.random.default_rng(0)
    for q in qids:
        want = predecessor_oracle(ledger, view, q)
        assert exp_search(ledger, view, q) == want
        assert offset_search(ledger, s, q) == want
        assert randomized_search(ledger, view, q, rng) == want
