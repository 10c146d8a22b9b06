"""Half-sampling candidate filter and rank-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility.errors import RankOutOfRange
from fragility.ledger import audit_sorted, new_session
from fragility.selection import (
    PHASE_BACKEND,
    PHASE_FILTER,
    PHASE_PRE,
    _filter_at_most,
    backend_mom,
    backend_network,
    reset,
    select_kth,
)


def test_filter_at_most_semantics_and_cost():
    ledger, ids = new_session([5, 1, 3, 3, 9])
    z = ids[2]  # payload 3, index 2
    kept = _filter_at_most(ledger, ids, z)
    # canonical order: payload then index, so ids[3] (3, index 3) is above z
    assert set(kept) == {ids[1], z}
    assert int(ledger.counts[z]) == 4  # one comparison per other element
    assert all(int(ledger.counts[e]) == 1 for e in ids if e != z)


def test_filter_keeps_z_alone():
    ledger, ids = new_session([4])
    assert _filter_at_most(ledger, [ids[0]], ids[0]).tolist() == [ids[0]]
    assert ledger.total == 0


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 200),
    k=st.integers(0, 199),
    seed=st.integers(0, 2**32 - 1),
)
def test_reset_contains_rank_k_element(n, k, seed):
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    values = [int(v) for v in rng.permutation(n)]
    ledger, ids = new_session(values)
    cand = reset(ledger, ids, k, rng)
    target = audit_sorted(ledger, ids)[k]
    assert target in cand.ids
    assert cand.z in cand.ids


def test_reset_rank_out_of_range():
    ledger, ids = new_session([1, 2, 3])
    rng = np.random.default_rng(0)
    with pytest.raises(RankOutOfRange):
        reset(ledger, ids, 3, rng)


def test_reset_candidate_sizes_stay_small_in_expectation():
    rng = np.random.default_rng(7)
    sizes = {k: [] for k in (0, 1, 3)}
    for k in sizes:
        for _ in range(200):
            values = [int(v) for v in rng.permutation(512)]
            ledger, ids = new_session(values)
            sizes[k].append(len(reset(ledger, ids, k, rng).ids))
    for k, observed in sizes.items():
        assert sum(observed) / len(observed) <= 1.5 * 2 * (k + 1), (k, sum(observed) / len(observed))


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-30, 30), min_size=1, max_size=120),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_select_kth_matches_oracle(values, seed, data):
    k = data.draw(st.integers(0, len(values) - 1))
    epsilon = data.draw(st.sampled_from([0.01, 0.25, 0.9]))
    rng = np.random.default_rng(seed)
    ledger, ids = new_session(values)
    res = select_kth(ledger, ids, k, rng, epsilon=epsilon)
    assert res == audit_sorted(ledger, ids)[k]


@pytest.mark.parametrize("backend", [backend_network, backend_mom])
def test_select_kth_small_sample_takes_direct_branch(backend):
    """Regression: n // k <= k used to sample too few elements and overrun."""
    info = {}
    ledger, ids = new_session([0, 0, 0, 0])
    res = select_kth(ledger, ids, 3, np.random.default_rng(0), backend=backend,
                     epsilon=0.9, info=info)
    assert res == audit_sorted(ledger, ids)[3]
    assert info["branch"] == "direct"


@pytest.mark.parametrize("backend", [backend_network, backend_mom])
@pytest.mark.parametrize("epsilon", [0.9, 0.99, 1.0])
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("equal", [False, True])
def test_select_kth_epsilon_near_one(backend, epsilon, n, equal):
    values = [7] * n if equal else list(range(n, 0, -1))
    for k in range(n):
        for seed in range(5):
            info = {}
            ledger, ids = new_session(values)
            res = select_kth(ledger, ids, k, np.random.default_rng(seed),
                             backend=backend, epsilon=epsilon, info=info)
            assert res == audit_sorted(ledger, ids)[k]
            size = n // max(k, 1)
            if n > 1:
                sampled = k <= n**epsilon and size > k
                assert info["branch"] == ("sampled" if sampled else "direct")


def test_select_kth_branches_and_info():
    rng = np.random.default_rng(0)

    info = {}
    ledger, ids = new_session([42])
    select_kth(ledger, ids, 0, rng, info=info)
    assert info["branch"] == "trivial"

    info = {}
    values = [int(v) for v in rng.permutation(4096)]
    ledger, ids = new_session(values)
    res = select_kth(ledger, ids, 1, rng, epsilon=0.25, info=info)
    assert info["branch"] == "sampled"
    assert info["filtered_size"] >= 2  # contains at least ranks 0..k
    assert ledger.payload(res) == 1

    info = {}
    ledger, ids = new_session(values)
    res = select_kth(ledger, ids, 2048, rng, epsilon=0.01, info=info)
    assert info["branch"] == "direct"
    assert ledger.payload(res) == 2048


def test_select_kth_phase_counts_partition_totals():
    rng = np.random.default_rng(3)
    values = [int(v) for v in rng.permutation(2048)]
    ledger, ids = new_session(values)
    select_kth(ledger, ids, 2, rng, epsilon=0.25)
    combined = (
        ledger.phase_counts(PHASE_PRE)
        + ledger.phase_counts(PHASE_FILTER)
        + ledger.phase_counts(PHASE_BACKEND)
    )
    assert (combined == ledger.counts).all()


def test_select_kth_backends_agree():
    rng = np.random.default_rng(1)
    values = [int(v) for v in rng.permutation(300)]
    for k in (0, 5, 150, 299):
        for backend in (backend_network, backend_mom):
            ledger, ids = new_session(values)
            res = select_kth(ledger, ids, k, np.random.default_rng(9), backend=backend)
            assert ledger.payload(res) == k


def test_select_kth_with_duplicates():
    rng = np.random.default_rng(4)
    values = [int(v) // 2 for v in rng.permutation(400)]
    ledger, ids = new_session(values)
    for k in (0, 3, 200, 399):
        res = select_kth(ledger, ids, k, rng)
        assert res == audit_sorted(ledger, ids)[k]


@pytest.mark.parametrize("backend", [backend_network, backend_mom])
@pytest.mark.parametrize(
    "n, k, epsilon, branch",
    [(1, 0, 0.01, "trivial"), (4096, 2, 0.25, "sampled"), (300, 150, 0.01, "direct")],
)
def test_select_kth_takes_an_index_array_pool(backend, n, k, epsilon, branch):
    """A list of ids and np.arange(n) give the same result and the same counts."""
    values = np.random.default_rng(n).permutation(n)
    runs = []
    for pool in (list(range(n)), np.arange(n)):
        ledger, _ = new_session(values)
        info = {}
        res = select_kth(ledger, pool, k, np.random.default_rng(7), backend=backend,
                         epsilon=epsilon, info=info)
        assert type(res) is int
        assert info["branch"] == branch
        assert ledger.payload(res) == k
        phases = [ledger.phase_counts(p).tolist() for p in (PHASE_PRE, PHASE_FILTER, PHASE_BACKEND)]
        runs.append((res, info, ledger.counts.tolist(), ledger.total, phases))
    assert runs[0] == runs[1]
