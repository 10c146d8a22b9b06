"""Counting-comparator semantics: the measurement surface everything trusts."""

import contextlib
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_sorted
from fragility.adaptive import count_runs
from fragility.errors import EmptyInput, SelfComparison, UnknownElement
from fragility.ledger import ComparisonLedger, new_session
from fragility.primitives import build_schedule, network_sort


def test_new_session_trivials():
    ledger, ids = new_session([10, 20, 30])
    assert len(ids) == 3
    assert ledger.total == 0
    assert ledger.counts.max() == 0


def test_empty_session_rejected():
    with pytest.raises(EmptyInput):
        new_session([])


def test_singleton_session_counts():
    ledger, ids = new_session([5])
    assert list(ledger.counts) == [0]


def test_compare_counts_both_sides():
    ledger, (a, b) = new_session([3, 5])
    assert ledger.compare(a, b) == -1
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


def test_sessions_share_ids_without_sharing_lists():
    for n in (3, 1, 5):
        ledger, ids = new_session(list(range(n)))
        assert list(ids) == list(range(n))
        assert ledger.ids() == ids
        with pytest.raises(TypeError):  # ids are a range, which no caller can alter
            ids[0] = 7
    ledger, ids = new_session([1, 2])
    assert list(ids) == [0, 1]
    with pytest.raises(UnknownElement):
        ledger.compare(ids[0], 99)


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
    assert ledger.compare(a, b) == 0
    assert ledger.compare(a, c) == -1
    assert ledger.compare(c, a) == 1


def test_less_breaks_ties_by_index_without_extra_cost():
    ledger, (a, b) = new_session([7, 7])
    before = ledger.total
    assert ledger.less(a, b) is True
    assert ledger.less(b, a) is False
    assert ledger.total == before + 2  # one counted comparison per call


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-50, 50), min_size=2, max_size=20),
    ops=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=80),
)
def test_sum_counts_is_twice_total(values, ops):
    ledger, ids = new_session(values)
    for i, j in ops:
        a, b = ids[i % len(ids)], ids[j % len(ids)]
        if a != b:
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


def test_non_numeric_payloads_fall_back():
    ledger, ids = new_session(["pear", "apple", "fig"])
    assert ledger.compare(ids[1], ids[0]) == -1
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
    assert list(from_array._values) == values.tolist()
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


def test_list_that_a_float_array_cannot_hold_compares_per_pair():
    """float64 merges 2**60 and 2**60 + 1, so the batch must not use it."""
    ledger = ComparisonLedger([2**60, 2**60 + 1, 0.5])
    assert ledger._vnum is None
    assert ledger.compare(0, 1) == -1
    assert ledger.compare_batch(np.array([0, 2]), np.array([1, 1])).tolist() == [-1, -1]
    assert ledger.counts.tolist() == [2, 3, 1] and ledger.total == 3


@pytest.mark.parametrize(
    "values",
    [
        np.array([True, False, True, False]),
        np.array([-128, 127, 0, 127, -1], dtype=np.int8),
        np.array([2**64 - 1, 0, 2**63, 2**64 - 1, 1], dtype=np.uint64),
        np.array([0.5, np.nan, -2.0, 0.5, np.inf, -0.0, 0.0], dtype=np.float16),
        np.array([2**62, -(2**62), 3, 3, 0], dtype=">i8"),
    ],
    ids=["bool", "int8", "uint64", "float16-nan", "big-endian-int64"],
)
def test_scalar_compare_on_an_array_session_matches_batch_and_list(values):
    """Scalar reads of an array session give the list session's scalars."""
    n = values.size
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    from_array, _ = new_session(values)
    from_list, _ = new_session(values.tolist())
    batch, _ = new_session(values)
    if values.dtype.isnative and values.dtype != np.float16:
        assert isinstance(from_array._values, memoryview)
    if not values.dtype.isnative:
        assert isinstance(from_array._values, list)
    for got, want in zip(from_array._values, from_list._values):
        assert type(got) is type(want) and (got == want or got != got and want != want)
    # a memoryview session (native dtypes but float16), a fallback list
    # session (the rest) and a list session all answer with plain int signs
    scalar = [from_array.compare(i, j) for i, j in pairs]
    listed = [from_list.compare(i, j) for i, j in pairs]
    assert all(type(sign) is int for sign in scalar + listed)
    assert scalar == listed
    a = np.array([i for i, _ in pairs], dtype=np.intp)
    b = np.array([j for _, j in pairs], dtype=np.intp)
    assert batch.compare_batch(a, b).tolist() == scalar
    assert from_array.counts.tolist() == from_list.counts.tolist() == batch.counts.tolist()


@settings(max_examples=60, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.integers(-9, 9), min_size=2, max_size=30),
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=2, max_size=12),
    ),
    a=st.lists(st.integers(0, 29), max_size=40),
    z=st.integers(0, 29),
    phase=st.booleans(),
)
def test_compare_batch_with_a_single_id_matches_a_repeated_array(values, a, z, phase):
    """compare_batch(a, z) counts and signs as compare_batch(a, [z] * a.size)."""
    n = len(values)
    z %= n
    a = np.array([i % n for i in a if i % n != z], dtype=np.intp)
    single, _ = new_session(values)
    repeated, _ = new_session(values)
    signs = []
    for ledger, b in ((single, z), (repeated, np.full(a.size, z, dtype=np.intp))):
        if phase:
            with ledger.in_phase("filter"):
                ledger.compare_batch(a, b)
        signs.append(ledger.compare_batch(a, b))
    assert signs[0].dtype == np.int8
    assert signs[0].tolist() == signs[1].tolist()
    assert single.counts.tolist() == repeated.counts.tolist()
    assert single.phase_counts("filter").tolist() == repeated.phase_counts("filter").tolist()
    assert single.total == repeated.total == (2 if phase else 1) * a.size
    assert int(single.counts.sum()) == 2 * single.total


@pytest.mark.parametrize(
    "values",
    [[4, 1, 3], [Fraction(1, 3), Fraction(1, 2), Fraction(2, 6)]],
    ids=["int", "object"],
)
def test_compare_batch_with_a_single_id_rejects_bad_ids(values):
    ledger, _ = new_session(values)
    with pytest.raises(SelfComparison):
        ledger.compare_batch(np.array([0, 1]), 1)
    # a length-1 array is not a single id: it would be counted only once
    with pytest.raises(ValueError):
        ledger.compare_batch(np.array([0, 1]), np.array([2]))
    for z in (3, -1):
        with pytest.raises(UnknownElement):
            ledger.compare_batch(np.array([0, 1]), z)
        with pytest.raises(UnknownElement):  # also with nothing to compare it with
            ledger.compare_batch(np.array([], dtype=np.intp), z)
    assert ledger.total == 0 and ledger.counts.tolist() == [0, 0, 0]


# payloads -3..3 as floats: unordered NaNs and equal zeros of either sign
_FLOATS = (np.nan, -0.0, 0.0, -2.5, 0.0, np.nan, -0.0)

_SESSIONS = {
    "list": lambda values: values,
    "array": np.array,
    "float": lambda values: np.array([_FLOATS[v + 3] for v in values]),
    "object": lambda values: [Fraction(v) for v in values],  # the per-pair fallback
}


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(_SESSIONS)),
    values=st.lists(st.integers(-3, 3), min_size=2, max_size=20),
    pairs=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40),
    z=st.one_of(st.none(), st.integers(0, 19)),
    phase=st.booleans(),
)
def test_less_batch_matches_less_per_pair(kind, values, pairs, z, phase):
    """less_batch answers and counts as a loop of less over the same pairs,
    with an array of b ids or a single one (z), and with no pair at all."""
    n = len(values)
    if z is None:
        pairs = [(i % n, j % n) for i, j in pairs if i % n != j % n]
        b = np.array([j for _, j in pairs], dtype=np.intp)
    else:
        z %= n
        pairs = [(i % n, z) for i, _ in pairs if i % n != z]
        b = z
    a = np.array([i for i, _ in pairs], dtype=np.intp)
    batch, _ = new_session(_SESSIONS[kind](values))
    scalar, _ = new_session(_SESSIONS[kind](values))
    assert (batch._vnum is None) == (kind == "object")
    with batch.in_phase("p") if phase else contextlib.nullcontext():
        answers = batch.less_batch(a, b)
    with scalar.in_phase("p") if phase else contextlib.nullcontext():
        expected = [scalar.less(i, j) for i, j in pairs]
    assert answers.dtype == bool and answers.tolist() == expected
    assert batch.counts.tolist() == scalar.counts.tolist()
    assert batch.total == scalar.total == len(pairs)
    assert batch.phase_counts("p").tolist() == scalar.phase_counts("p").tolist()


@pytest.mark.parametrize("make", [list, np.array], ids=["tuples", "2d-array"])
def test_tuple_payloads_batch_as_compare_does(make):
    """Equal-length tuples (or the rows of a 2-D array) are compared whole,
    per pair, on every batch path."""
    values = [(1, 2), (0, 5), (1, 1), (0, 0)]
    ledger, ids = new_session(make(values))
    assert ledger.compare_batch(np.array([0, 0]), np.array([1, 2])).tolist() == [
        ledger.compare(0, 1), ledger.compare(0, 2)] == [1, 1]
    assert ledger.less_batch(np.array([0, 1, 3]), 2).tolist() == [False, True, True]
    assert count_runs(ledger, ids) == [[0], [1, 2], [3]]
    assert int(ledger.counts.sum()) == 2 * ledger.total
    rng = np.random.default_rng(40)
    wide = [tuple(row) for row in rng.integers(0, 3, size=(40, 2)).tolist()]
    ledger, ids = new_session(make(wide))
    assert network_sort(ledger, ids) == oracle_sorted(make(wide))
    assert int(ledger.counts.sum()) == 2 * ledger.total


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
def test_ids_outside_the_session_raise_before_any_count(make):
    """A memoryview counter would read -1 as its last item: the check comes first."""
    ledger, _ = new_session(make([4, 1, 3]))
    for call, a, b in ((ledger.compare, -1, 0), (ledger.less, 0, -1), (ledger.compare, 0, 3)):
        for phase in (False, True):
            with ledger.in_phase("p") if phase else contextlib.nullcontext():
                with pytest.raises(UnknownElement):
                    call(a, b)
    assert ledger.counts.tolist() == ledger.phase_counts("p").tolist() == [0, 0, 0]
    assert ledger.total == 0


@pytest.mark.parametrize("phase", [False, True])
def test_scalar_and_batch_counts_add_up_in_one_array(phase):
    ledger, _ = new_session(np.array([4, 1, 3, 0]))
    with ledger.in_phase("p") if phase else contextlib.nullcontext():
        ledger.compare(0, 1)
        ledger.less(2, 0)
        ledger.compare_batch(np.array([0, 3]), 1)
        ledger.less_batch(np.array([0, 2]), np.array([3, 1]))
    assert ledger.counts.tolist() == [4, 4, 2, 2]
    assert ledger.total == 6 and int(ledger.counts.sum()) == 12
    assert ledger.phase_counts("p").tolist() == ([4, 4, 2, 2] if phase else [0, 0, 0, 0])


@pytest.mark.parametrize("values", [["a\x00", "a", "b"], [b"a\x00", b"a", b"b"]], ids=["str", "bytes"])
def test_trailing_nuls_compare_per_pair(values):
    """A numpy U or S array drops trailing NULs, so the batch must not use it."""
    ledger, _ = new_session(values)
    assert ledger._vnum is None
    assert ledger.compare_batch(np.array([0, 1]), np.array([1, 2])).tolist() == [
        ledger.compare(0, 1), ledger.compare(1, 2)] == [1, -1]
    assert ledger.less_batch(np.array([1, 2]), 0).tolist() == [
        ledger.less(1, 0), ledger.less(2, 0)] == [True, False]
    assert ledger.counts.tolist() == [6, 6, 4] and ledger.total == 8


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
def test_sort_network_checks_ids_before_any_count(make):
    """An unknown id, or one id on two wires, raises before any comparator
    counts; the scalar network would count until the two copies met."""
    ledger, _ = new_session(make(list(range(20, 0, -1))))
    for ids, error in (([0, 1, 20], UnknownElement), ([0, -1, 2], UnknownElement),
                       ([3, 1, 3], SelfComparison), (list(range(19)) + [0], SelfComparison)):
        for phase in (False, True):
            with ledger.in_phase("p") if phase else contextlib.nullcontext():
                with pytest.raises(error):
                    ledger.sort_network(ids, *build_schedule(len(ids)))
    with pytest.raises(SelfComparison):  # 20 wires: network_sort's sort_network path
        network_sort(ledger, list(range(19)) + [0])
    assert not ledger.counts.any() and not ledger.phase_counts("p").any()
    assert ledger.total == 0


@pytest.mark.parametrize("make", [list, np.array, lambda v: [Fraction(x) for x in v]],
                         ids=["list", "array", "object"])
def test_network_sort_checks_ids_before_any_count(make):
    """A small network, or one on payloads that cannot be ranked, also checks
    its ids first: the scalar loop once counted comparators until it met the
    bad id."""
    ledger, _ = new_session(make([5, 4, 3, 2, 1, 0]))
    for ids, error in (([3, 1, 4, 0, 3], SelfComparison), ([0, 1, 2, 3, 6], UnknownElement),
                       ([0, 1, 2, 3, -1], UnknownElement), ([0, 1, 2, 3, 4, 5, 0], SelfComparison)):
        for phase in (False, True):
            with ledger.in_phase("p") if phase else contextlib.nullcontext():
                with pytest.raises(error):
                    network_sort(ledger, ids)
    assert not ledger.counts.any() and not ledger.phase_counts("p").any()
    assert ledger.total == 0


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
def test_complex_payloads_batch_as_compare_does(make):
    """Complex payloads have no order: both batch methods raise TypeError as
    ``compare`` does, after counting the same first pair."""
    values = [1 + 2j, 3 + 0j, 2 + 1j]
    scalar, _ = new_session(make(values))
    with pytest.raises(TypeError):
        scalar.compare(0, 1)
    for batch in ("less_batch", "compare_batch"):
        ledger, _ = new_session(make(values))
        with pytest.raises(TypeError):
            getattr(ledger, batch)(np.array([0, 1]), np.array([1, 2]))
        assert ledger.counts.tolist() == scalar.counts.tolist()
        assert ledger.total == scalar.total == 1


# the calls of test_phases_partition_the_counts; payloads 0..11 over 48
# elements, so ties meet on every path
_PAYLOADS = np.random.default_rng(24).integers(0, 12, 48).tolist()
_LESS = lambda ledger: [ledger.less(i, i + 1) for i in range(0, 8, 2)]
_BATCH = lambda ledger: ledger.less_batch(np.arange(8, 16), np.arange(16, 24))
_BATCH_ONE = lambda ledger: ledger.less_batch(np.arange(24, 32), 3)
_NET_5 = lambda ledger: network_sort(ledger, list(range(40, 45)))
_NET_40 = lambda ledger: network_sort(ledger, list(range(2, 42)))


@pytest.mark.parametrize("kind", ["array", "list", "object"])
def test_phases_partition_the_counts(kind):
    """Each comparison is tallied once, in the innermost open phase or outside
    every phase, on every counting path: ``counts`` is what a ledger without
    phases counts, and each phase holds what its own calls count alone."""

    def twin(*calls):
        ledger, _ = new_session(_SESSIONS[kind](_PAYLOADS))
        for call in calls:
            call(ledger)
        return ledger.counts.tolist()

    ledger, _ = new_session(_SESSIONS[kind](_PAYLOADS))
    assert (ledger._vnum is None) == (kind == "object")
    _LESS(ledger)
    with ledger.in_phase("outer"):
        _BATCH(ledger)
        with ledger.in_phase("inner"):
            _LESS(ledger)
            _NET_5(ledger)
            _BATCH_ONE(ledger)
            # a read inside a phase holds that phase's comparisons
            assert ledger.counts.tolist() == twin(_LESS, _BATCH, _LESS, _NET_5, _BATCH_ONE)
        _NET_40(ledger)
        # a later read holds the later comparisons
        assert ledger.counts.tolist() == twin(_LESS, _BATCH, _LESS, _NET_5, _BATCH_ONE, _NET_40)
    with pytest.raises(SelfComparison), ledger.in_phase("inner"):
        ledger.less(5, 5)
    _BATCH_ONE(ledger)  # outside every phase again, after a body that raised
    everything = (_LESS, _BATCH, _LESS, _NET_5, _BATCH_ONE, _NET_40, _BATCH_ONE)
    assert ledger.counts.tolist() == twin(*everything)
    assert ledger.phase_counts("outer").tolist() == twin(_BATCH, _NET_40)
    assert ledger.phase_counts("inner").tolist() == twin(_LESS, _NET_5, _BATCH_ONE)
    assert int(ledger.counts.sum()) == 2 * ledger.total
