"""Counting-comparator semantics: the measurement surface everything trusts."""

import json
import sys
import threading
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility.errors import EmptyInput, SelfComparison, UnknownElement
from fragility.ledger import (
    ComparisonLedger,
    Ordering,
    audit_sorted,
    new_session,
)


def test_new_session_trivials():
    ledger, ids = new_session([10, 20, 30])
    assert len(ids) == 3
    assert ledger.total == 0
    assert ledger.profile().max == 0


def test_empty_session_rejected():
    with pytest.raises(EmptyInput):
        new_session([])


def test_singleton_profile():
    ledger, ids = new_session([5])
    assert ledger.profile().max == 0 and ledger.profile().mean == 0.0


def test_compare_counts_both_sides():
    ledger, (a, b) = new_session([3, 5])
    assert ledger.compare(a, b) is Ordering.LESS
    assert list(ledger.counts) == [1, 1]
    assert ledger.total == 1
    ledger.compare(a, b)
    assert list(ledger.counts) == [2, 2] and ledger.total == 2


def test_self_comparison_rejected():
    ledger, ids = new_session([1, 2])
    with pytest.raises(SelfComparison):
        ledger.compare(ids[0], ids[0])


def test_unknown_element_rejected():
    ledger, ids = new_session([1, 2])
    with pytest.raises(UnknownElement):
        ledger.compare(ids[0], 99)
    with pytest.raises(UnknownElement):
        ledger.payload(99)


def test_sessions_share_ids_without_sharing_lists():
    first = None
    for n in (3, 1, 5):
        ledger, ids = new_session(list(range(n)))
        assert ids == list(range(n))
        assert ledger.ids() == ids
        if first is None:
            first = ids
            first.append(42)
            first[0] = 7
    ledger, ids = new_session([1, 2])
    assert ids == [0, 1]
    with pytest.raises(UnknownElement):
        ledger.compare(ids[0], 99)
    with pytest.raises(UnknownElement):
        ledger.payload(99)


def test_shared_ids_grow_safely_across_threads():
    """Sessions built concurrently on several threads get correct ids."""
    base = 0
    bad = []

    def worker(offset):
        for step in range(100):
            n = base + 1 + step * 50 + offset * 13
            _, ids = new_session([0] * n)
            if len(ids) != n or any(ids[i] != i for i in range(base, n)):
                bad.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_compare_antisymmetric_and_equal():
    ledger, (a, b, c) = new_session([7, 7, 9])
    assert ledger.compare(a, b) is Ordering.EQUAL
    assert ledger.compare(a, c) is Ordering.LESS
    assert ledger.compare(c, a) is Ordering.GREATER


def test_less_breaks_ties_by_index_without_extra_cost():
    ledger, (a, b) = new_session([7, 7])
    before = ledger.total
    assert ledger.less(a, b) is True
    assert ledger.less(b, a) is False
    assert ledger.total == before + 2  # one counted comparison per call


def test_audit_mode_never_mutates_counts():
    ledger, (a, b) = new_session([3, 5])
    for _ in range(1000):
        assert ledger.audit_compare(a, b) is Ordering.LESS
    assert ledger.total == 0
    assert ledger.profile().max == 0
    assert ledger.audit_total == 1000


def test_audit_matches_counted_ordering():
    ledger, ids = new_session([4, 1, 4, 9])
    for i in range(len(ids)):
        for j in range(len(ids)):
            if i == j:
                continue
            assert ledger.audit_compare(ids[i], ids[j]) == ledger.compare(ids[i], ids[j])


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-50, 50), min_size=2, max_size=20),
    ops=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19), st.booleans()), max_size=80),
)
def test_sum_counts_is_twice_total(values, ops):
    ledger, ids = new_session(values)
    for i, j, audit in ops:
        a, b = ids[i % len(ids)], ids[j % len(ids)]
        if a == b:
            continue
        if audit:
            ledger.audit_compare(a, b)
        else:
            ledger.compare(a, b)
    assert int(ledger.counts.sum()) == 2 * ledger.total


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(-9, 9), min_size=2, max_size=30),
    pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=1, max_size=60),
)
def test_compare_batch_differential(values, pairs):
    """compare_batch must be observationally identical to per-pair compare."""
    pairs = [(i % len(values), j % len(values)) for i, j in pairs]
    pairs = [(i, j) for i, j in pairs if i != j]
    if not pairs:
        return
    l1, ids1 = new_session(values)
    l2, ids2 = new_session(values)
    a = np.array([i for i, _ in pairs], dtype=np.intp)
    b = np.array([j for _, j in pairs], dtype=np.intp)
    signs = l1.compare_batch(a, b)
    expected = [int(l2.compare(ids2[i], ids2[j])) for i, j in pairs]
    assert list(signs) == expected
    assert list(l1.counts) == list(l2.counts)
    assert l1.total == l2.total


def test_compare_batch_rejects_self_pairs():
    ledger, ids = new_session([1, 2, 3])
    with pytest.raises(SelfComparison):
        ledger.compare_batch(np.array([0, 1]), np.array([2, 1]))
    with pytest.raises(UnknownElement):
        ledger.compare_batch(np.array([0]), np.array([5]))


def test_phase_counts_are_segregated():
    ledger, (a, b, c) = new_session([1, 2, 3])
    with ledger.in_phase("alpha"):
        ledger.compare(a, b)
        with ledger.in_phase("beta"):
            ledger.compare(b, c)
        ledger.compare(a, c)
    assert list(ledger.phase_counts("alpha")) == [2, 1, 1]
    assert list(ledger.phase_counts("beta")) == [0, 1, 1]
    assert list(ledger.counts) == [2, 2, 2]


def test_profile_roles_and_serialization():
    ledger, (a, b) = new_session([3, 5])
    ledger.compare(a, b)
    prof = ledger.profile(role_map={a: "query", b: "array"})
    assert prof.by_role["query"] == (1, 1.0)
    # the fields are plain JSON values, ready for a report row
    payload = json.loads(json.dumps(asdict(prof)))
    assert payload["per_element"] == {"0": 1, "1": 1}
    assert payload["by_role"] == {"query": [1, 1.0], "array": [1, 1.0]}
    assert (payload["max"], payload["mean"], payload["phase"]) == (1, 1.0, None)


def test_audit_sorted_is_payload_then_index():
    ledger, ids = new_session([4, 1, 4, 0])
    order = audit_sorted(ledger, ids)
    assert order == [3, 1, 0, 2]
    assert ledger.total == 0


def test_non_numeric_payloads_fall_back():
    ledger, ids = new_session(["pear", "apple", "fig"])
    assert ledger.compare(ids[1], ids[0]) is Ordering.LESS
    signs = ledger.compare_batch(np.array([0, 1]), np.array([2, 2]))
    assert list(signs) == [1, -1]
    assert int(ledger.counts.sum()) == 2 * ledger.total


def test_compare_batch_object_fallback_matches_compare():
    """Fractions make an object-dtype array, so compare_batch compares per pair."""
    values = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 6), Fraction(5, 4), Fraction(2, 4)]
    pairs = [(i, j) for i in range(5) for j in range(5) if i != j] + [(0, 2), (4, 1)]
    l1, _ = new_session(values)
    l2, ids2 = new_session(values)
    assert l1._vnum is None
    a = np.array([i for i, _ in pairs], dtype=np.intp)
    b = np.array([j for _, j in pairs], dtype=np.intp)
    with l1.in_phase("batch"):
        signs = l1.compare_batch(a, b)
    with l2.in_phase("batch"):
        expected = [int(l2.compare(ids2[i], ids2[j])) for i, j in pairs]
    assert signs.dtype == np.int8
    assert signs.tolist() == expected
    assert expected.count(0) == 6  # equal payloads: (0, 2) and (1, 4) both ways, plus repeats
    assert l1.counts.tolist() == l2.counts.tolist()
    assert l1.total == l2.total == len(pairs)
    assert l1.phase_counts("batch").tolist() == l2.phase_counts("batch").tolist()
    assert int(l1.counts.sum()) == 2 * l1.total


@pytest.mark.parametrize(
    "values",
    [
        np.array([5, -3, 5, 0, 9, -3]),
        np.array([0.5, 2.25, 0.5, -1.0]),
        np.array([7], dtype=np.int8),
    ],
)
def test_session_from_array_keeps_a_private_copy(values):
    """An array session batches on a copy of the array and matches a list session."""
    from_array, _ = new_session(values)
    from_list, _ = new_session(values.tolist())
    assert from_array._vnum is not values
    assert from_array._vnum.dtype == values.dtype
    assert from_array._values == values.tolist()
    n = values.size
    a = np.array([i for i in range(n) for j in range(n) if i != j], dtype=np.intp)
    b = np.array([j for i in range(n) for j in range(n) if i != j], dtype=np.intp)
    snapshot = values.copy()
    values[:] = 0  # the session must not see later writes to the caller's array
    assert from_array.compare_batch(a, b).tolist() == from_list.compare_batch(a, b).tolist()
    assert from_array.counts.tolist() == from_list.counts.tolist()
    values[:] = snapshot


def test_session_from_object_array_falls_back():
    values = np.array([Fraction(1, 3), Fraction(1, 2), Fraction(2, 6)], dtype=object)
    ledger, _ = new_session(values)
    assert ledger._vnum is None
    assert ledger.compare_batch(np.array([0, 1]), np.array([2, 2])).tolist() == [0, 1]


@pytest.mark.parametrize(
    "values",
    [
        np.array([3, -7, 3, 2**40, -(2**40), 0, 3], dtype=np.int64),
        np.array([200, 0, 200, 17, 255, 17], dtype=np.uint8),
        np.array([0.5, np.nan, -1.5, 0.5, np.inf, np.nan, -np.inf, 0.0, -0.0]),
        np.array(["pear", "apple", "fig", "apple", "", "pear"]),
    ],
    ids=["int64", "uint8", "float-nan", "str"],
)
def test_compare_batch_signs_match_compare_per_dtype(values):
    """Every ordered pair, ties and NaN included, as one batch and per pair."""
    n = values.size
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    l1, _ = new_session(values)
    l2, ids2 = new_session(values)
    assert l1._vnum is not None and l1._vnum.dtype == values.dtype
    a = np.array([i for i, _ in pairs], dtype=np.intp)
    b = np.array([j for _, j in pairs], dtype=np.intp)
    signs = l1.compare_batch(a, b)
    expected = [int(l2.compare(ids2[i], ids2[j])) for i, j in pairs]
    assert signs.dtype == np.int8
    assert signs.tolist() == expected
    assert 0 in expected  # ties (and NaN pairs) give 0
    assert l1.counts.tolist() == l2.counts.tolist()
    assert l1.total == l2.total == len(pairs)
    assert int(l1.counts.sum()) == 2 * l1.total
