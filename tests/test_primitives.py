"""Sorting network, tournament, galloping merge, deterministic selection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility import primitives
from fragility.errors import EmptyInput, RankOutOfRange
from fragility.ledger import audit_sorted, new_session
from fragility.primitives import (
    SCALAR_NETWORK_WIRES,
    build_schedule,
    ceil_log2,
    exponential_merge,
    mom_select,
    network_depth_bound,
    network_sort,
    small_median,
    tournament_min,
)

values_lists = st.lists(st.integers(-100, 100), min_size=1, max_size=64)


def assert_ascending(ledger, ids):
    """Audit-only merge-precondition check used by the merge tests."""
    for prev, cur in zip(ids, ids[1:]):
        if not ledger.audit_less(prev, cur):
            raise AssertionError(f"{prev} !< {cur}")


def test_ceil_log2_trivials():
    assert [ceil_log2(m) for m in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_network_depth_bound_values():
    assert network_depth_bound(1) == 0
    assert network_depth_bound(2) == 1
    assert network_depth_bound(4) == 3
    assert network_depth_bound(1024) == 55


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 16, 31])
def test_schedule_layers_are_disjoint_and_within_depth(m):
    sched = build_schedule(m)
    assert sched.depth <= network_depth_bound(m)
    for layer in sched.layers:
        touched = [w for pair in layer for w in pair]
        assert len(touched) == len(set(touched))
        assert all(0 <= i < j < m for i, j in layer)


@pytest.mark.parametrize("m", range(1, 13))
def test_zero_one_principle_exhaustive(m):
    """A network sorting every 0-1 input of length m sorts every input."""
    sched = build_schedule(m)
    for bits in itertools.product((0, 1), repeat=m):
        out = sched.apply_plain(list(bits))
        assert out == sorted(bits), f"m={m} bits={bits}"


@settings(max_examples=120, deadline=None)
@given(values=values_lists)
def test_network_sort_matches_oracle(values):
    ledger, ids = new_session(values)
    out = network_sort(ledger, ids)
    assert out == audit_sorted(ledger, ids)


@pytest.mark.parametrize("m", [4, 64, 1024])
def test_network_sort_fragility_at_most_depth(m):
    values = [int(v) for v in np.random.default_rng(m).permutation(m)]
    ledger, ids = new_session(values)
    network_sort(ledger, ids)
    assert int(ledger.counts.max()) <= network_depth_bound(m)


@pytest.mark.parametrize("m", range(1, SCALAR_NETWORK_WIRES + 1))
def test_network_sort_scalar_path_matches_batch_path(m, monkeypatch):
    """Small networks compare one pair at a time; nothing observable differs."""
    rng = np.random.default_rng(m)
    for trial in range(20):
        values = [int(v) for v in rng.integers(0, max(1, m // 2), size=m)]
        # shuffled ids, so ties meet in both index orders
        order = [int(i) for i in rng.permutation(m)]
        runs = []
        for wires in (SCALAR_NETWORK_WIRES, 0):
            monkeypatch.setattr(primitives, "SCALAR_NETWORK_WIRES", wires)
            ledger, ids = new_session(values)
            with ledger.in_phase("sort"):
                out = network_sort(ledger, [ids[i] for i in order])
            runs.append((out, list(ledger.counts), ledger.total,
                         list(ledger.phase_counts("sort"))))
        assert runs[0] == runs[1], (m, trial)
        assert runs[0][0] == audit_sorted(ledger, ids)


def test_network_sort_is_stable_on_duplicates():
    values = [1, 1, 0, 0, 1]
    ledger, ids = new_session(values)
    out = network_sort(ledger, ids)
    assert out == [2, 3, 0, 1, 4]


@settings(max_examples=80, deadline=None)
@given(values=values_lists)
def test_tournament_min_correct_and_logarithmic(values):
    ledger, ids = new_session(values)
    winner = tournament_min(ledger, ids)
    assert winner == audit_sorted(ledger, ids)[0]
    assert int(ledger.counts.max()) <= ceil_log2(len(ids))


def test_tournament_min_empty_rejected():
    ledger, _ = new_session([1])
    with pytest.raises(EmptyInput):
        tournament_min(ledger, [])


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(-20, 20), min_size=0, max_size=40),
    mask=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_exponential_merge_matches_oracle(values, mask):
    if not values:
        return
    ledger, ids = new_session(values)
    ordered = audit_sorted(ledger, ids)
    a = [e for e, keep in zip(ordered, mask) if keep]
    b = [e for e, keep in zip(ordered, mask) if not keep]
    assert_ascending(ledger, a)
    assert_ascending(ledger, b)
    assert exponential_merge(ledger, a, b) == ordered


def test_merge_precondition_audit_detects_descent():
    ledger, ids = new_session([3, 1, 2])
    with pytest.raises(AssertionError):
        assert_ascending(ledger, ids)


def test_merge_single_element_costs_logarithmically():
    """Inserting one element into a long run costs O(log displacement) total."""
    n = 1000
    ledger, ids = new_session(list(range(0, 2 * n, 2)) + [n + 1])
    run, single = ids[:n], [ids[n]]
    merged = exponential_merge(ledger, run, single)
    assert merged == audit_sorted(ledger, ids)
    assert ledger.total <= 2 * ceil_log2(n) + 4


def test_merge_empty_sides():
    ledger, ids = new_session([1, 2, 3])
    assert exponential_merge(ledger, ids, []) == ids
    assert exponential_merge(ledger, [], ids) == ids
    assert ledger.total == 0


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-30, 30), min_size=1, max_size=40), data=st.data())
def test_mom_select_matches_oracle(values, data):
    k = data.draw(st.integers(0, len(values) - 1))
    ledger, ids = new_session(values)
    assert mom_select(ledger, ids, k) == audit_sorted(ledger, ids)[k]


def test_mom_select_rank_out_of_range():
    ledger, ids = new_session([1, 2, 3])
    with pytest.raises(RankOutOfRange):
        mom_select(ledger, ids, 3)
    with pytest.raises(RankOutOfRange):
        mom_select(ledger, ids, -1)


@settings(max_examples=60, deadline=None)
@given(values=values_lists)
def test_small_median_is_lower_median(values):
    ledger, ids = new_session(values)
    res = small_median(ledger, ids)
    assert res == audit_sorted(ledger, ids)[(len(ids) - 1) // 2]
    assert int(ledger.counts.max()) <= network_depth_bound(len(ids))


def test_small_median_empty_rejected():
    ledger, _ = new_session([1])
    with pytest.raises(EmptyInput):
        small_median(ledger, [])
