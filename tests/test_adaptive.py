"""Runs/inversions adaptive minimum, median and sorting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility import generators
from fragility.adaptive import (
    PHASE_SCAN,
    count_permutation_inversions,
    count_runs,
    extract_sorted_run,
    median_by_inv,
    median_by_runs,
    median_two_runs,
    min_by_inv,
    min_by_runs,
    sort_by_inv,
)
from fragility.errors import EmptyInput
from fragility.harness import _measured_disorder
from fragility.ledger import audit_sorted, new_session
from fragility.primitives import (
    ceil_log2,
    mom_select,
    network_sort,
    small_median,
    tournament_min,
)
from fragility.selection import select_kth

values_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=100)


def _brute_inversions(ledger, ids):
    keys = [ledger.sort_key(e) for e in ids]
    return sum(
        1
        for i in range(len(keys))
        for j in range(i + 1, len(keys))
        if keys[j] < keys[i]
    )


@settings(max_examples=80, deadline=None)
@given(values=values_lists)
def test_count_runs_scan_cost_and_partition(values):
    ledger, ids = new_session(values)
    runs = count_runs(ledger, ids)
    assert int(ledger.counts.max()) <= 2
    # the runs partition the input in order, each ascending in the canonical order
    assert [e for run in runs for e in run] == list(ids)
    for run in runs:
        keys = [ledger.sort_key(e) for e in run]
        assert keys == sorted(keys)


def test_count_runs_empty_rejected():
    ledger, _ = new_session([1])
    with pytest.raises(EmptyInput):
        count_runs(ledger, [])


@settings(max_examples=60, deadline=None)
@given(values=values_lists)
def test_count_inversions_oracle_matches_brute_force(values):
    """The harness's inversion oracle counts pairs out of (payload, index) order."""
    ledger, ids = new_session(values)
    assert _measured_disorder(values)[1] == _brute_inversions(ledger, ids)


def _merge_count(seq):
    """Sorted copy and inversion count of ``seq`` by top-down merge sort."""
    if len(seq) < 2:
        return list(seq), 0
    mid = len(seq) // 2
    left, inv_left = _merge_count(seq[:mid])
    right, inv_right = _merge_count(seq[mid:])
    merged, inv = [], inv_left + inv_right
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            inv += len(left) - i  # every left value still waiting exceeds it
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


def _check_permutation_counts(n, rng):
    perms = [np.arange(n), np.arange(n)[::-1], rng.permutation(n)]
    for perm in perms:
        assert count_permutation_inversions(perm) == _merge_count(perm.tolist())[1], n


def test_count_permutation_inversions_matches_merge_count_every_small_n():
    """Every n up to 300: the pairwise base alone (n <= 128) and the row merges."""
    rng = np.random.default_rng(300)
    for n in range(301):
        _check_permutation_counts(n, rng)


@pytest.mark.parametrize("k", range(1, 16))
def test_count_permutation_inversions_around_powers_of_two(k):
    """Padding from none to 2^k - 1 sentinels; every row width up to 2^15."""
    rng = np.random.default_rng(k)
    for n in (2**k - 1, 2**k, 2**k + 1):
        _check_permutation_counts(n, rng)


def test_min_by_inv_info_reports_extraction_without_moving_counts():
    values = generators.gen_controlled_inv(512, 300, np.random.default_rng(9))
    plain, plain_ids = new_session(values)
    logged, logged_ids = new_session(values)
    info = {}
    assert min_by_inv(logged, logged_ids, info=info) == min_by_inv(plain, plain_ids)
    _, I = extract_sorted_run(*new_session(values))
    assert info == {"I_size": len(I)} and len(I) > 0
    assert logged.counts.tolist() == plain.counts.tolist()
    assert logged.total == plain.total
    for phase in ("extract", "tournament"):
        assert logged.phase_counts(phase).tolist() == plain.phase_counts(phase).tolist()


@settings(max_examples=80, deadline=None)
@given(values=values_lists)
def test_min_by_runs_correct_with_log_runs_fragility(values):
    ledger, ids = new_session(values)
    res = min_by_runs(ledger, ids)
    assert res == audit_sorted(ledger, ids)[0]
    runs = len(count_runs(*new_session(values)))
    assert int(ledger.counts.max()) <= 2 + ceil_log2(runs)


@pytest.mark.parametrize("runs", [1, 2, 7, 64])
def test_min_by_runs_controlled(runs):
    rng = np.random.default_rng(runs)
    values = generators.gen_controlled_runs(512, runs, rng)
    ledger, ids = new_session(values)
    res = min_by_runs(ledger, ids)
    assert ledger.payload(res) == 0
    assert int(ledger.counts.max()) <= 2 + ceil_log2(runs)


@settings(max_examples=100, deadline=None)
@given(values=values_lists)
def test_extract_sorted_run_structure(values):
    ledger, ids = new_session(values)
    R, I = extract_sorted_run(ledger, ids)
    inv = _measured_disorder(values)[1]
    keys = [ledger.sort_key(e) for e in R]
    assert keys == sorted(keys)
    assert sorted(R + I) == list(range(len(ids)))
    assert len(I) <= 2 * inv
    assert int(ledger.counts.max()) <= 4


def test_extract_on_sorted_input_removes_nothing():
    ledger, ids = new_session(list(range(30)))
    R, I = extract_sorted_run(ledger, ids)
    assert I == [] and R == list(ids)


@settings(max_examples=80, deadline=None)
@given(values=values_lists)
def test_min_by_inv_correct_with_log_i_fragility(values):
    ledger, ids = new_session(values)
    res = min_by_inv(ledger, ids)
    assert res == audit_sorted(ledger, ids)[0]
    _, I = extract_sorted_run(*new_session(values))
    assert int(ledger.counts.max()) <= 4 + ceil_log2(len(I) + 1) + 1


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    split=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_median_two_runs_correct_and_constant(n, split, seed):
    split = min(split, n)
    rng = np.random.default_rng(seed)
    values = generators.gen_two_runs(n, split, rng)
    ledger, ids = new_session(values)
    res = median_two_runs(ledger, ids[:split], ids[split:])
    assert res == audit_sorted(ledger, ids)[(n - 1) // 2]
    assert int(ledger.counts.max()) <= 12


def test_median_two_runs_empty_rejected():
    ledger, _ = new_session([1])
    with pytest.raises(EmptyInput):
        median_two_runs(ledger, [], [])


@settings(max_examples=60, deadline=None)
@given(values=values_lists)
def test_median_by_runs_matches_oracle_small(values):
    ledger, ids = new_session(values)
    res = median_by_runs(ledger, ids)
    assert res == audit_sorted(ledger, ids)[(len(ids) - 1) // 2]


@pytest.mark.parametrize("runs,n", [(1, 4096), (2, 4096), (8, 1 << 14)])
def test_median_by_runs_controlled_with_balanced_removals(runs, n):
    # n is large enough for removal rounds: at n = 4096, Runs = 8 runs none
    rng = np.random.default_rng(runs)
    values = generators.gen_controlled_runs(n, runs, rng)
    ledger, ids = new_session(values)
    log = []
    res = median_by_runs(ledger, ids, log=log)
    ordered = audit_sorted(ledger, ids)
    assert res == ordered[(n - 1) // 2]
    rank = {e: r for r, e in enumerate(ordered)}
    assert log
    for removed_low, removed_high in log:
        # balanced: equally many certified-low and certified-high removals,
        # none of which is the global median
        assert len(removed_low) == len(removed_high)
        assert all(rank[e] < (n - 1) // 2 for e in removed_low)
        assert all(rank[e] > (n - 1) // 2 for e in removed_high)


def test_median_by_inv_correct_on_controlled_inputs():
    rng = np.random.default_rng(5)
    for inv in (0, 5, 200, 3000):
        values = generators.gen_controlled_inv(1024, inv, rng)
        ledger, ids = new_session(values)
        res = median_by_inv(ledger, ids)
        assert res == audit_sorted(ledger, ids)[(len(ids) - 1) // 2]


@settings(max_examples=60, deadline=None)
@given(values=values_lists)
def test_median_by_inv_matches_oracle(values):
    ledger, ids = new_session(values)
    res = median_by_inv(ledger, ids)
    assert res == audit_sorted(ledger, ids)[(len(ids) - 1) // 2]


@settings(max_examples=100, deadline=None)
@given(values=values_lists)
def test_sort_by_inv_matches_oracle(values):
    ledger, ids = new_session(values)
    assert sort_by_inv(ledger, ids) == audit_sorted(ledger, ids)


def test_sort_by_inv_sorted_input_costs_only_the_scan():
    ledger, ids = new_session(list(range(200)))
    assert sort_by_inv(ledger, ids) == list(ids)
    assert int(ledger.counts.max()) <= 2


def test_sort_by_inv_adversarial_single_misplaced_element():
    rng = np.random.default_rng(11)
    values = generators.gen_adversarial_run_plus_one(2048, rng)
    ledger, ids = new_session(values)
    assert sort_by_inv(ledger, ids) == audit_sorted(ledger, ids)
    # one misplaced element: everyone else pays at most a constant
    counts = sorted(int(c) for c in ledger.counts)
    assert counts[-2] <= 12


def test_sort_by_inv_controlled_fragility_grows_with_inv():
    rng = np.random.default_rng(13)
    maxima = []
    for inv in (4, 64, 1024):
        values = generators.gen_controlled_inv(4096, inv, rng)
        ledger, ids = new_session(values)
        assert sort_by_inv(ledger, ids) == audit_sorted(ledger, ids)
        maxima.append(int(ledger.counts.max()))
    assert maxima == sorted(maxima)


@pytest.mark.parametrize("n", [2**17, 2**17 + 1])
def test_count_permutation_inversions_at_two_to_the_17(n):
    """Rows of 2^17 and 2^18 tags, where a row's sum of positions passes int32."""
    assert count_permutation_inversions(np.arange(n)) == 0
    assert count_permutation_inversions(np.arange(n)[::-1]) == n * (n - 1) // 2
    perm = np.random.default_rng(n).permutation(n)
    assert count_permutation_inversions(perm) == _merge_count(perm.tolist())[1]


def _scalar_count_runs(ledger, ids):
    """count_runs as a scan of scalar neighbour comparisons."""
    runs, start = [], 0
    for i in range(1, len(ids)):
        if ledger.less(ids[i], ids[i - 1]):
            runs.append(ids[start:i])
            start = i
    runs.append(ids[start:])
    return runs


@settings(max_examples=150, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.integers(0, 4), min_size=1, max_size=40),
        st.lists(st.fractions(-2, 2, max_denominator=3), min_size=1, max_size=20),
    ),
    data=st.data(),
)
def test_count_runs_batch_matches_a_scalar_scan(values, data):
    """The one batch compares the same neighbour pairs as a scalar scan."""
    ids = data.draw(st.permutations(range(len(values))))
    batch, _ = new_session(values)
    scalar, _ = new_session(values)
    with batch.in_phase(PHASE_SCAN):
        runs = count_runs(batch, ids)
    with scalar.in_phase(PHASE_SCAN):
        expected = _scalar_count_runs(scalar, ids)
    assert runs == expected
    assert batch.counts.tolist() == scalar.counts.tolist()
    assert batch.phase_counts(PHASE_SCAN).tolist() == scalar.phase_counts(PHASE_SCAN).tolist()
    assert batch.total == scalar.total == len(ids) - 1


# name -> (call(ledger, ids, k), expected(n, k)) with k the lower median's rank
_ALL_EQUAL = {
    "min_by_runs": (lambda ledger, ids, k: min_by_runs(ledger, ids), lambda n, k: 0),
    "min_by_inv": (lambda ledger, ids, k: min_by_inv(ledger, ids), lambda n, k: 0),
    "tournament_min": (lambda ledger, ids, k: tournament_min(ledger, ids), lambda n, k: 0),
    "median_by_runs": (lambda ledger, ids, k: median_by_runs(ledger, ids), lambda n, k: k),
    "median_by_inv": (lambda ledger, ids, k: median_by_inv(ledger, ids), lambda n, k: k),
    "small_median": (lambda ledger, ids, k: small_median(ledger, ids), lambda n, k: k),
    "mom_select": (mom_select, lambda n, k: k),
    "select_kth": (
        lambda ledger, ids, k: select_kth(ledger, ids, k, np.random.default_rng(k)),
        lambda n, k: k,
    ),
    "select_kth-k1": (
        lambda ledger, ids, k: select_kth(ledger, ids, 1, np.random.default_rng(k)),
        lambda n, k: 1,
    ),
    "sort_by_inv": (lambda ledger, ids, k: sort_by_inv(ledger, ids), lambda n, k: list(range(n))),
    "network_sort": (lambda ledger, ids, k: network_sort(ledger, ids), lambda n, k: list(range(n))),
    "extract_sorted_run": (
        lambda ledger, ids, k: extract_sorted_run(ledger, ids),
        lambda n, k: (list(range(n)), []),
    ),
}


@pytest.mark.parametrize("n", [3, 17, 100])
@pytest.mark.parametrize("name", sorted(_ALL_EQUAL))
def test_all_equal_payloads_give_the_index_order_answer(name, n):
    """Ties break by index, so on [7] * n each answer is that of ids in
    index order, and every comparison still counts for both elements."""
    call, expected = _ALL_EQUAL[name]
    ledger, ids = new_session([7] * n)
    k = (n - 1) // 2
    assert call(ledger, ids, k) == expected(n, k)
    assert int(ledger.counts.sum()) == 2 * ledger.total
