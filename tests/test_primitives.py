"""Sorting network, tournament, galloping merge, deterministic selection."""

import contextlib
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility import generators
from fragility.errors import EmptyInput, RankOutOfRange
from fragility.ledger import audit_sorted, new_session
from fragility.primitives import (
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
        if not ledger.sort_key(prev) < ledger.sort_key(cur):
            raise AssertionError(f"{prev} !< {cur}")


def test_ceil_log2_trivials():
    assert [ceil_log2(m) for m in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_network_depth_bound_values():
    assert network_depth_bound(1) == 0
    assert network_depth_bound(2) == 1
    assert network_depth_bound(4) == 3
    assert network_depth_bound(1024) == 55


def _layers(m):
    lo, hi, ends = build_schedule(m)
    starts = [0, *ends.tolist()]
    return [list(zip(lo[s:e].tolist(), hi[s:e].tolist())) for s, e in zip(starts, starts[1:])]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 16, 31])
def test_schedule_layers_are_disjoint_and_within_depth(m):
    lo, hi, ends = build_schedule(m)
    assert len(ends) <= network_depth_bound(m)
    layers = _layers(m)
    assert sum(len(layer) for layer in layers) == len(lo)
    for layer in layers:
        assert layer
        touched = [w for pair in layer for w in pair]
        assert len(touched) == len(set(touched))
        assert all(0 <= i < j < m for i, j in layer)


def test_schedule_matches_the_pinned_networks():
    """The (i, j) pairs in layer order for 2..300 wires, as the pure-Python
    layer generator gave them before the networks were built as arrays."""
    h = hashlib.sha256()
    for m in range(2, 301):
        for layer in _layers(m):
            h.update(f"{m}:{layer}\n".encode())
    assert h.hexdigest() == "e83aeaad789515c133c55c8aaca414b8a12a96c530da573118be8fd65fa8a5b3"


def _masked_power_of_two_network(m):
    """Knuth's odd-even merge sort on the next power of two n, less every
    comparator that touches a wire >= m, empty passes dropped: the reference
    that :func:`build_schedule`, which runs the passes on m wires, must give."""
    n = 1 << ceil_log2(m)
    x = np.arange(n, dtype=np.intp)
    passes = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            r = k % p
            y = x + k
            lo = x[(x >= r) & ((x - r) % (2 * k) < k) & (y < n) & (x // (2 * p) == y // (2 * p))]
            lo = lo[lo + k < m]
            passes.append((lo, lo + k))
            k //= 2
        p *= 2
    passes = [(lo, hi) for lo, hi in passes if lo.size]
    return ([lo for lo, _ in passes], [hi for _, hi in passes],
            np.cumsum([lo.size for lo, _ in passes], dtype=np.intp))


def test_schedule_is_the_masked_power_of_two_network():
    sizes = [*range(1, 601), *(2**t + d for t in range(10, 16) for d in (-1, 0, 1))]
    try:
        for m in sizes:
            lo, hi, ends = build_schedule(m)
            los, his, want_ends = _masked_power_of_two_network(m)
            assert lo.tolist() == np.concatenate([lo[:0], *los]).tolist(), m
            assert hi.tolist() == np.concatenate([hi[:0], *his]).tolist(), m
            assert ends.tolist() == want_ends.tolist(), m
    finally:
        build_schedule.cache_clear()  # the widest networks hold tens of MB


def test_schedule_arrays_are_read_only():
    for arr in build_schedule(5):
        with pytest.raises(ValueError):
            arr[...] = 0


@pytest.mark.parametrize("m", range(1, 13))
def test_zero_one_principle_exhaustive(m, sorts_every_zero_one_input):
    """A network sorting every 0-1 input of length m sorts every input."""
    lo, hi, _ = build_schedule(m)
    assert sorts_every_zero_one_input(m, lo, hi)


def test_zero_one_check_rejects_the_network_less_any_comparator(sorts_every_zero_one_input):
    lo, hi, _ = build_schedule(8)
    for c in range(len(lo)):
        assert not sorts_every_zero_one_input(8, np.delete(lo, c), np.delete(hi, c)), c


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


@pytest.mark.parametrize("m", range(1, 33))
def test_network_sort_scalar_path_matches_batch_path(m, monkeypatch):
    """``sort_network`` runs small networks one pair at a time and ranks
    larger ones; nothing observable differs on either side of
    ``SCALAR_NETWORK_WIRES``."""
    rng = np.random.default_rng(m)
    for trial in range(20):
        values = [int(v) for v in rng.integers(0, max(1, m // 2), size=m)]
        if trial % 2:  # object payloads: compare_batch's per-pair fallback
            values = [Fraction(v, 3) for v in values]
        # shuffled ids, so ties meet in both index orders
        order = [int(i) for i in rng.permutation(m)]
        runs = []
        for wires in (m, 0):
            monkeypatch.setattr("fragility.ledger.SCALAR_NETWORK_WIRES", wires)
            ledger, ids = new_session(values)
            with ledger.in_phase("sort"):
                out = network_sort(ledger, [ids[i] for i in order])
            runs.append((out, list(ledger.counts), ledger.total,
                         list(ledger.phase_counts("sort"))))
        assert runs[0] == runs[1], (m, trial)
        assert runs[0][0] == audit_sorted(ledger, ids)


def _scalar_network(ledger, ids):
    """The network on ``len(ids)`` wires as a loop of counted ``less``."""
    lo, hi, _ = build_schedule(len(ids))
    out = list(ids)
    for i, j in zip(lo.tolist(), hi.tolist()):
        if not ledger.less(out[i], out[j]):
            out[i], out[j] = out[j], out[i]
    return out


# payloads -3..3 per session kind; tuples (a 2-D array) and NaN cannot be ranked
_ZEROS = (-0.0, 0.0, -2.5, 0.0, 1.5, -0.0, 3.0)
_NANS = (np.nan, -0.0, 0.0, -2.5, 0.0, np.nan, -0.0)
_NETWORK_SESSIONS = {
    "list": lambda values: values,
    "array": np.array,
    "uint8": lambda values: np.array([v + 3 for v in values], dtype=np.uint8),
    "bool": lambda values: np.array(values) > 0,
    "zeros-list": lambda values: [_ZEROS[v + 3] for v in values],
    "zeros-array": lambda values: np.array([_ZEROS[v + 3] for v in values]),
    "nan": lambda values: np.array([_NANS[v + 3] for v in values]),
    "str": lambda values: [str(v) for v in values],
    "bytes": lambda values: [str(v).encode() for v in values],
    "tuple": lambda values: [(v % 2, v) for v in values],
}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(_NETWORK_SESSIONS)),
    values=st.lists(st.integers(-3, 3), min_size=1, max_size=80),
    data=st.data(),
    phase=st.booleans(),
)
def test_sort_network_replays_the_scalar_network(kind, values, data, phase):
    """``ComparisonLedger.sort_network`` on any subset of a session's ids
    answers and counts as the network's comparators run through ``less``, on
    the payloads it ranks and on those it cannot."""
    ids = data.draw(st.permutations(range(len(values))))
    ids = ids[: data.draw(st.integers(0, len(ids)))]
    runs = []
    for ranked in (True, False):
        ledger, _ = new_session(_NETWORK_SESSIONS[kind](values))
        with ledger.in_phase("sort") if phase else contextlib.nullcontext():
            if ranked:
                out = ledger.sort_network(ids, *build_schedule(len(ids)))
            else:
                out = _scalar_network(ledger, ids)
        runs.append((out, ledger.counts.tolist(), ledger.total,
                     ledger.phase_counts("sort").tolist()))
    assert runs[0] == runs[1]
    if kind != "nan":
        assert runs[0][0] == audit_sorted(ledger, ids)


def test_network_sort_counts_digest_is_pinned():
    """sha256 over the output, total, ``counts`` and phase counts of one
    ``network_sort`` per size, with and without tied payloads, on list and
    array sessions, over shuffled ids: a comparison moved from one element to
    another changes it.  Pinned on the one-``less_batch``-per-layer network."""
    digest = hashlib.sha256()
    for m in (17, 100, 1000, 4097):
        for dup in (False, True):
            values = generators.gen_random(m, np.random.default_rng(m))
            values = generators.with_duplicates(values) if dup else values.tolist()
            order = np.random.default_rng(m + 1).permutation(m).tolist()
            for make in (list, np.array):
                ledger, ids = new_session(make(values))
                with ledger.in_phase("sort"):
                    out = network_sort(ledger, [ids[i] for i in order])
                digest.update(json.dumps([out, ledger.total]).encode())
                digest.update(ledger.counts.tobytes())
                digest.update(ledger.phase_counts("sort").tobytes())
    assert digest.hexdigest() == "69b6c7f7ac99c3e8f62ad6457d0a2cc41b8251021b0873d244c72545e185a524"


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
    assert exponential_merge(ledger, ids, []) == list(ids)
    assert exponential_merge(ledger, [], ids) == list(ids)
    assert ledger.total == 0


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-30, 30), min_size=1, max_size=40), data=st.data())
def test_mom_select_matches_oracle(values, data):
    k = data.draw(st.integers(0, len(values) - 1))
    ledger, ids = new_session(values)
    assert mom_select(ledger, ids, k) == audit_sorted(ledger, ids)[k]


# k -> (answer, total, sha256 of json.dumps(counts.tolist())), measured on the
# list-based partition loop that the batched partition replaced
MOM_SELECT_PINS = {
    0: (526, 8099, "27b13d122b4b6fc81f7674b6c8bb16f0ba356bd6a28806fc2f0611bb47c033c2"),
    333: (341, 8131, "7a3abe6f1eef769de8dc972aea9f5ce4ad3f7031f59b83571ac8d692db0a3be6"),
    499: (472, 8271, "0c2d044df164b6897db60a8e0bd90c279c0252dc3563e605582b8053fe93b1e2"),
    998: (303, 7785, "49d7d6459f638bd8d1d9dd523841aa6fb692623fd25e3ae860403867ea9c23de"),
}


@pytest.mark.parametrize("k", sorted(MOM_SELECT_PINS))
@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
def test_mom_select_counts_are_pinned_with_duplicates(k, make):
    """n = 1000 payloads in tied pairs: every element's count is pinned."""
    values = generators.with_duplicates(generators.gen_random(1000, np.random.default_rng(16)))
    ledger, ids = new_session(make(values))
    res = mom_select(ledger, ids, k)
    digest = hashlib.sha256(json.dumps(ledger.counts.tolist()).encode()).hexdigest()
    assert (res, ledger.total, digest) == MOM_SELECT_PINS[k]


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
