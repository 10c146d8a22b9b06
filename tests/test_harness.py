"""Generators, experiment runner determinism, bound verification, CLI."""

import argparse
import concurrent.futures
import ctypes
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility import adaptive, cli, generators, harness, search
from fragility.errors import ConfigError, CountMismatch, InfeasibleTarget
from fragility.harness import (
    ALGORITHMS,
    BOUND_SETS,
    SEARCHES,
    SEQUENCE_GENERATORS,
    ExperimentSpec,
    Report,
    aggregate_reports,
    child_seed,
    default_bound_sets,
    read_spec_file,
    run_experiment,
    verify,
    _measured_disorder,
    _oracle_order,
)
from fragility.ledger import ComparisonLedger, new_session

# ---------------------------------------------------------------------------
# generators


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 300), runs=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_controlled_runs_hits_target_exactly(n, runs, seed):
    runs = min(runs, n)
    vals = generators.gen_controlled_runs(n, runs, np.random.default_rng(seed))
    assert sorted(vals) == list(range(n))
    assert _measured_disorder(vals)[0] == runs


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 200), inv=st.integers(0, 20000), seed=st.integers(0, 2**32 - 1))
def test_controlled_inv_hits_target_exactly(n, inv, seed):
    inv = min(inv, n * (n - 1) // 2)
    vals = generators.gen_controlled_inv(n, inv, np.random.default_rng(seed))
    assert sorted(vals) == list(range(n))
    assert _measured_disorder(vals)[1] == inv


def test_controlled_inv_output_is_pinned():
    """The decoded permutations at n = 4096, from Inv = 0 to the maximum."""
    n = 4096
    digest = hashlib.sha256()
    for inv in (0, 16, 4096, 1 << 20, n * (n - 1) // 2):
        for seed in range(3):
            vals = generators.gen_controlled_inv(n, inv, np.random.default_rng(seed))
            digest.update(repr(vals).encode())
    assert digest.hexdigest() == "07deffec983685481d035e5ca42526f722d41a05f8303155ff524f9e808ca8d7"


@settings(max_examples=80, deadline=None)
@given(vals=st.lists(st.integers(-20, 20), max_size=150))
def test_measured_disorder_matches_brute_force(vals):
    """Inv counts strict payload inversions; equal payloads are in order."""
    n = len(vals)
    runs = (1 if n else 0) + sum(vals[i + 1] < vals[i] for i in range(n - 1))
    inv = sum(vals[i] > vals[j] for i in range(n) for j in range(i + 1, n))
    assert _measured_disorder(vals) == (runs, inv)


@pytest.mark.parametrize(
    "vals",
    [
        [7],
        [3, 1],
        [4, 4],
        [5] * 40,
        generators.with_duplicates(generators.gen_random(300, np.random.default_rng(1))),
        [-3, 7, -3, -10, 0, 7, -10, -3],
        [0.5, -1.25, 0.5, 2.0, -1.25, 0.5],
        generators.gen_random(1000, np.random.default_rng(2)),
        [0],
        [1, 0],
        [2, 1],
        [3, 0, 3, 1],
    ],
    ids=["n1", "n2", "n2-equal", "all-equal", "with-duplicates", "negative", "float-ties", "distinct",
         "perm-n1", "perm-n2", "shifted-perm-n2", "perm-range-missing-a-slot"],
)
def test_oracle_order_is_the_stable_argsort(vals):
    expected = np.argsort(np.asarray(vals), kind="stable")
    assert _oracle_order(vals).tolist() == expected.tolist()
    assert _oracle_order(np.asarray(vals)).tolist() == expected.tolist()


@settings(max_examples=80, deadline=None)
@given(vals=st.lists(st.integers(-5, 5), max_size=200))
def test_oracle_order_is_the_stable_argsort_with_many_ties(vals):
    expected = np.argsort(np.asarray(vals, dtype=np.int64), kind="stable")
    assert _oracle_order(np.asarray(vals, dtype=np.int64)).tolist() == expected.tolist()


@settings(max_examples=150, deadline=None)
@given(
    perm=st.integers(1, 80).flatmap(lambda n: st.permutations(range(n))),
    change=st.sampled_from(["none", "duplicate", "shift", "negate", "uint8", "uint8-duplicate"]),
    i=st.integers(0, 79),
    j=st.integers(0, 79),
)
def test_oracle_order_on_permutations_and_near_permutations(perm, change, i, j):
    """The inverse-permutation path agrees with the stable argsort, and
    payloads that are almost a permutation of 0..n-1 still sort correctly."""
    vals = np.array(perm, dtype=np.int64)
    n = vals.size
    if change.endswith("duplicate"):
        vals[i % n] = vals[j % n]
    if change == "shift":
        vals += 1
    elif change == "negate":
        vals = -vals
    elif change.startswith("uint8"):
        vals = vals.astype(np.uint8)
    expected = np.argsort(vals, kind="stable")
    assert _oracle_order(vals).tolist() == expected.tolist()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), split=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_two_runs_generator(n, split, seed):
    split = min(split, n)
    vals = generators.gen_two_runs(n, split, np.random.default_rng(seed))
    assert sorted(vals) == list(range(n))
    assert _measured_disorder(vals)[0] <= 2


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1))
def test_adversarial_run_plus_one(n, seed):
    vals = generators.gen_adversarial_run_plus_one(n, np.random.default_rng(seed))
    assert _measured_disorder(vals)[0] == 2
    assert vals[-1] % 2 == 1 and all(v % 2 == 0 for v in vals[:-1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), k=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
def test_lower_bound_instance_inv_at_most_k(n, k, seed):
    k = min(k, n * n)
    vals = generators.gen_lower_bound_instance(n, k, np.random.default_rng(seed))
    assert _measured_disorder(vals)[1] <= max(k, 0)


def test_with_duplicates_halves_values():
    assert generators.with_duplicates([0, 1, 2, 3]) == [0, 0, 1, 1]


def test_generator_infeasible_targets():
    rng = np.random.default_rng(0)
    with pytest.raises(InfeasibleTarget):
        generators.gen_controlled_runs(4, 5, rng)
    with pytest.raises(InfeasibleTarget):
        generators.gen_controlled_inv(4, 7, rng)
    with pytest.raises(InfeasibleTarget):
        generators.gen_two_runs(4, 5, rng)
    with pytest.raises(InfeasibleTarget):
        generators.gen_adversarial_run_plus_one(1, rng)
    with pytest.raises(InfeasibleTarget):
        generators.gen_random(0, rng)


def test_gen_random_returns_an_array_that_sessions_take_as_is():
    vals = generators.gen_random(1000, np.random.default_rng(5))
    assert isinstance(vals, np.ndarray) and vals.dtype == np.int64
    assert sorted(vals.tolist()) == list(range(1000))
    from_array, ids_a = new_session(vals)
    from_list, ids_l = new_session(vals.tolist())
    assert ids_a == ids_l and all(type(e) is int for e in ids_a)
    assert list(from_array._values) == from_list._values
    assert all(type(v) is int for v in from_array._values)
    assert from_array._vnum.dtype == from_list._vnum.dtype
    assert from_array._vnum.tolist() == from_list._vnum.tolist()
    a = np.arange(999, dtype=np.intp)
    signs = from_array.compare_batch(a, a + 1)
    assert signs.tolist() == from_list.compare_batch(a, a + 1).tolist()
    assert from_array.counts.tolist() == from_list.counts.tolist()
    assert from_array.total == from_list.total


# ---------------------------------------------------------------------------
# spec parsing and validation


def test_child_seed_is_deterministic_and_distinct():
    assert child_seed(0, 0) != child_seed(0, 1) != child_seed(1, 0)
    assert child_seed(5, 3) == child_seed(5, 3)
    assert 0 <= child_seed(2**63, 9) < 2**64


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentSpec(algorithm="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(algorithm="network_sort", generator="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(algorithm="network_sort", trials=0).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(algorithm="network_sort", backend="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(algorithm="min_by_runs", n=8, runs=9).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(algorithm="sort_by_inv", n=4, inv=7).validate()


@pytest.mark.parametrize("fields,message", [
    (dict(algorithm="median_two_runs", generator="two_runs", n=100, split=101), "split=101"),
    (dict(algorithm="median_two_runs", generator="two_runs", n=100, split=-1), "split=-1"),
    (dict(algorithm="select_kth", n=100, k=100), "k=100"),
    (dict(algorithm="mom_select", n=100, k=-1), "k=-1"),
    (dict(algorithm="network_sort", generator="lower_bound", n=10, k=101), "k=101"),
    (dict(algorithm="network_sort", generator="adversarial_run_plus_one", n=1), "n >= 2"),
])
def test_spec_rejects_a_split_k_or_n_that_no_trial_could_run(fields, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentSpec(**fields).validate()


@pytest.mark.parametrize("fields", [
    dict(algorithm="median_two_runs", generator="two_runs", n=100, split=0),
    dict(algorithm="median_two_runs", generator="two_runs", n=100, split=100),
    dict(algorithm="select_kth", n=100, k=99),
    dict(algorithm="mom_select", n=100, k=0),
    dict(algorithm="network_sort", generator="lower_bound", n=10, k=100),
    dict(algorithm="network_sort", n=10, k=500),  # no consumer of k: unchecked
    dict(algorithm="network_sort", generator="adversarial_run_plus_one", n=2),
])
def test_spec_accepts_the_edges_of_split_k_and_n(fields):
    spec = ExperimentSpec(**fields, trials=1)
    spec.validate()
    assert run_experiment(spec).rows


@pytest.mark.parametrize("fields,accepted", [
    (dict(generator="two_runs", split=30), True),
    (dict(generator="adversarial_run_plus_one"), True),
    (dict(generator="controlled_runs"), True),
    (dict(generator="controlled_runs", runs=2, duplicates=True), True),
    (dict(generator="controlled_inv", inv=1), True),
    (dict(generator="lower_bound", k=15, duplicates=True), True),
    (dict(generator="random", n=2), True),
    (dict(generator="random"), False),
    (dict(generator="random", duplicates=True), False),
    (dict(generator="controlled_runs", runs=3), False),
    (dict(generator="controlled_inv", inv=2), False),
    (dict(generator="lower_bound", k=9), False),
])
def test_median_two_runs_validates_where_every_seed_gives_two_runs(fields, accepted):
    """validate accepts a median_two_runs spec where its runner never raises,
    and rejects one where some seed gives three runs."""
    spec = ExperimentSpec(**{"algorithm": "median_two_runs", "n": 100, "trials": 30, **fields})
    if accepted:
        spec.validate()
        assert run_experiment(spec).aggregates["correct_fraction"] == 1.0
        return
    with pytest.raises(ConfigError, match="two-run input: generator"):
        spec.validate()
    with pytest.raises(ConfigError, match=r"two-run input \(use two_runs\)"):
        for seed in range(100):
            ALGORITHMS["median_two_runs"](spec, np.random.default_rng(seed))


@pytest.mark.parametrize(
    "algorithm,generator", [("tournament_min", "uniform_ranks"), ("exp_search", "controlled_runs")]
)
def test_spec_rejects_a_generator_that_does_not_fit_the_algorithm(algorithm, generator):
    with pytest.raises(ConfigError) as exc:
        ExperimentSpec.from_mapping({"algorithm": algorithm, "generator": generator})
    assert algorithm in str(exc.value) and generator in str(exc.value)


def test_spec_from_mapping_coerces_strings():
    spec = ExperimentSpec.from_mapping(
        {"algorithm": "network_sort", "n": "64", "trials": "3", "epsilon": "0.5",
         "duplicates": "true", "inv": "12"}
    )
    assert spec.n == 64 and spec.trials == 3 and spec.epsilon == 0.5
    assert spec.duplicates is True and spec.inv == 12
    with pytest.raises(ConfigError):
        ExperimentSpec.from_mapping({"algorithm": "network_sort", "bogus": "1"})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_mapping({"n": "64"})


def test_spec_from_file(tmp_path):
    path = tmp_path / "exp.spec"
    path.write_text(
        "# comment\nalgorithm = min_by_runs\ngenerator=controlled_runs\n"
        "n = 256\nruns = 4\ntrials=2\n\n",
        encoding="utf-8",
    )
    spec = ExperimentSpec.from_mapping(read_spec_file(str(path)))
    assert spec.algorithm == "min_by_runs" and spec.runs == 4 and spec.n == 256
    bad = tmp_path / "bad.spec"
    bad.write_text("algorithm min_by_runs\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        ExperimentSpec.from_mapping(read_spec_file(str(bad)))


def test_spec_file_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "twice.spec"
    path.write_text("algorithm = network_sort\nn = 100\n# later\nn = 7\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"twice.spec:4: key 'n' repeats line 2"):
        read_spec_file(str(path))


# ---------------------------------------------------------------------------
# runner and report


def test_run_experiment_is_byte_identical():
    spec = ExperimentSpec(algorithm="min_by_runs", generator="controlled_runs",
                          n=256, runs=8, trials=5, seed=42)
    a = run_experiment(spec).to_json()
    b = run_experiment(spec).to_json()
    assert a == b
    payload = json.loads(a)
    assert len(payload["rows"]) == 5
    assert payload["aggregates"]["correct_fraction"] == 1.0
    assert [row["trial"] for row in payload["rows"]] == list(range(5))


class _DroppingLedger(ComparisonLedger):
    """A ledger that leaves one comparison's pair of counts unrecorded."""

    __slots__ = ("dropped",)

    def compare(self, a, b):
        out = super().compare(a, b)
        if not getattr(self, "dropped", False):
            self.dropped = True
            self.counts[a] -= 1
            self.counts[b] -= 1
        return out


@pytest.mark.parametrize("spec", [
    ExperimentSpec(algorithm="tournament_min", n=64, trials=1),
    ExperimentSpec(algorithm="exp_search", n=64, searches=10, trials=1),
], ids=["ordering", "search"])
def test_runner_raises_when_the_counts_miss_a_comparison(spec, monkeypatch):
    def dropping_session(values):
        ledger = _DroppingLedger(values)
        return ledger, ledger.ids()

    monkeypatch.setattr(harness, "new_session", dropping_session)
    with pytest.raises(CountMismatch) as info:
        run_experiment(spec)
    sums = re.fullmatch(r"the per-element counts sum to (\d+), not 2 \* total = (\d+)", str(info.value))
    assert int(sums[1]) == int(sums[2]) - 2


@pytest.fixture
def started_threads(monkeypatch):
    """The worker thread of each oracle executor that the test's runs start;
    the runner imports the executor at call time, so the patch reaches it."""
    started = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args):
            def recorded(*args):
                started.append(threading.current_thread())
                return fn(*args)

            return super().submit(recorded, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return started


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _run_in_python(code: str) -> str:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout


def test_importing_the_cli_leaves_out_the_executor():
    """Only an overlapped trial imports concurrent.futures (and its logging)."""
    code = "import sys, fragility.cli; print('concurrent.futures' in sys.modules)"
    assert _run_in_python(code).strip() == "False"


@pytest.mark.skipif(not _on_glibc(), reason="cli.main sets glibc's malloc parameters only")
def test_cli_main_keeps_freed_memory_between_select_trials():
    """A second select_kth run at n = 2^17 in one process reuses the memory
    the first one freed: 1-45 minor faults per trial were measured, against
    1950-2900 when glibc trims the heap top after every trial."""
    code = """if True:
        import os, resource
        from fragility import cli
        argv = ["run", "--algo", "select_kth", "--n", "131072", "--k", "4", "--epsilon", "0.25",
                "--trials", "3", "--seed", "1", "--out", os.devnull]
        assert cli.main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(argv) == 0
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
    """
    assert float(_run_in_python(code)) < 200


@pytest.mark.skipif(not _on_glibc(), reason="cli.main sets glibc's malloc parameters only")
def test_cli_main_sets_the_heap_policy_and_importing_the_cli_does_not():
    code = """if True:
        import ctypes, os
        calls = []

        class Recording(ctypes.CDLL):
            @property
            def mallopt(self):
                return lambda param, value: calls.append((param, value)) or 1

        ctypes.CDLL = Recording
        import fragility, fragility.cli as cli
        from fragility.harness import ExperimentSpec, run_experiment
        run_experiment(ExperimentSpec(algorithm="select_kth", n=64, k=2, epsilon=0.25, trials=1))
        print(calls)
        assert cli.main(["generate", "--n", "3", "--out", os.devnull]) == 0
        print(calls == list(cli._HEAP_POLICY))
    """
    assert _run_in_python(code).split() == ["[]", "True"]


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: None, _unknown_name], ids=["no-glibc", "unknown-name"])
def test_keep_freed_memory_does_nothing_off_glibc(confstr, monkeypatch):
    def no_library(*args, **kwargs):
        raise AssertionError("loaded a C library off glibc")

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert cli.keep_freed_memory() is False


def test_overlapped_oracle_rows_equal_inline_rows(started_threads, monkeypatch):
    spec = ExperimentSpec(algorithm="select_kth", n=harness.OVERLAP_MIN_N + 1, k=4, epsilon=0.25,
                          trials=2, seed=4)
    overlapped = run_experiment(spec).to_json()
    assert len(started_threads) == spec.trials
    monkeypatch.setattr(harness, "OVERLAP_MIN_N", spec.n + 1)
    assert run_experiment(spec).to_json() == overlapped
    assert len(started_threads) == spec.trials  # the second run kept the oracle inline


@pytest.mark.parametrize("spec", [
    ExperimentSpec(algorithm="sort_by_inv", generator="controlled_inv", n=harness.OVERLAP_MIN_N + 1,
                   inv=300, trials=1, seed=4),
    ExperimentSpec(algorithm="median_by_runs", generator="controlled_runs",
                   n=harness.OVERLAP_MIN_N + 1, runs=5, trials=1, seed=4),
], ids=["sort_by_inv", "median_by_runs"])
def test_the_oracle_overlaps_only_array_native_algorithms(spec, started_threads):
    """Algorithms that compare in Python loops hold the GIL: their oracle stays inline."""
    assert run_experiment(spec).aggregates["correct_fraction"] == 1.0
    assert started_threads == []


def test_a_raising_large_trial_leaves_no_thread(tmp_path, capsys, monkeypatch, started_threads):
    def fail(*args, **kwargs):
        raise ConfigError("select_kth failed")

    monkeypatch.setattr(harness, "select_kth", fail)
    threads = threading.active_count()
    n = harness.OVERLAP_MIN_N
    spec = ExperimentSpec(algorithm="select_kth", n=n, trials=1)
    with pytest.raises(ConfigError, match="select_kth failed"):
        run_experiment(spec)
    assert threading.active_count() == threads
    assert cli.main(["run", "--algo", "select_kth", "--n", str(n), "--trials", "1",
                     "--out", str(tmp_path / "report.json")]) == 2
    assert "select_kth failed" in capsys.readouterr().err
    assert threading.active_count() == threads
    assert len(started_threads) == 2  # each run overlapped its oracle


def test_an_oracle_error_is_raised_on_the_calling_thread(monkeypatch, started_threads):
    def fail(arr):
        raise ZeroDivisionError("oracle")

    monkeypatch.setattr(harness, "_oracle", fail)
    monkeypatch.setattr(harness, "OVERLAP_MIN_N", 64)
    spec = ExperimentSpec(algorithm="select_kth", n=64, trials=1)
    with pytest.raises(ZeroDivisionError, match="oracle"):
        run_experiment(spec)
    assert len(started_threads) == 1  # the oracle raised on its worker thread
    assert started_threads[0] is not threading.current_thread()
    assert not started_threads[0].is_alive()


def _pinned_specs():
    """The 30 n=100 specs: every algorithm, with and without duplicates."""
    for algo in ALGORITHMS:
        if algo in ("exp_search", "offset_search", "randomized_search"):
            extra = {"generator": "uniform_ranks", "searches": 100}
        else:
            extra = {"generator": "two_runs" if algo == "median_two_runs" else "random"}
        for dup in (False, True):
            name = algo + ("+dup" if dup else "")
            yield name, ExperimentSpec(algorithm=algo, n=100, trials=10, seed=1, duplicates=dup, **extra)


def test_report_and_verdict_digests_are_pinned():
    """Report bytes and verdicts (slack by repr) of the 30 specs; a changed
    count shows up here.  The report digest dates from the bound and runner
    tables' introduction, the verdict digest from ``oracle-agreement``
    becoming the one set that reports ``matches-oracle``."""
    lines, verdicts = [], []
    for name, spec in _pinned_specs():
        report = run_experiment(spec)
        lines.append(f"{name} {hashlib.sha256(report.to_json().encode()).hexdigest()}")
        for bound_set in default_bound_sets(spec.algorithm):
            for v in verify(report, bound_set)[1]:
                verdicts.append(
                    f"{name} {bound_set} {v['bound']} {v['trial']} {v['passed']} {v['slack']!r}"
                )
    digest = hashlib.sha256(("\n".join(sorted(lines)) + "\n").encode()).hexdigest()
    assert digest == "1a2f8bf4d26bbc56600d7cda60a14dae77b0ebdc8558880fe484394e6bedd67e"
    digest = hashlib.sha256(("\n".join(verdicts) + "\n").encode()).hexdigest()
    assert digest == "443c6c7d8077715f3a99caf3a72001de595f3c28ef2190fe2c2afe20292b70ea"


def test_median_by_runs_removal_round_digest_is_pinned():
    """Report bytes of ``median_by_runs`` at n = 4096, Runs 1, 2 and 4, with
    and without duplicates.  Unlike the n = 100 specs above, which all take
    the small-median fallback, every one of these trials runs removal rounds,
    so a moved count in the rounds shows up here.  ROADMAP item 2 (a finish
    that uses the runs) will re-pin it on purpose."""
    lines = []
    for runs in (1, 2, 4):
        for dup in (False, True):
            spec = ExperimentSpec(algorithm="median_by_runs", generator="controlled_runs",
                                  n=4096, runs=runs, trials=3, seed=1, duplicates=dup)
            lines.append(hashlib.sha256(run_experiment(spec).to_json().encode()).hexdigest())
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "43c726ba247d9559b11ad6dc4bb008f8974426b25a6086e445603ec2633f2a83"


def test_per_element_counts_digest_is_pinned():
    """sha256 over the answers, each ``ranks_used`` and ``ledger.counts`` of
    direct calls of the three searchers, ``sort_by_inv`` and
    ``median_by_runs``.  Report rows carry only frag_max, frag_mean and total,
    so the digests above miss a comparison moved from one element to another;
    this one sees it."""
    digest = hashlib.sha256()

    def add(ledger, answers):
        digest.update(json.dumps(answers).encode())
        digest.update(ledger.counts.tobytes())

    n = 300
    for seed, generator in ((1, "uniform_ranks"), (2, "skewed_ranks")):
        spec = ExperimentSpec(algorithm="exp_search", generator=generator, n=n, searches=400)
        ranks = harness.RANK_GENERATORS[generator](spec, np.random.default_rng(seed)).tolist()
        # distinct array payloads with odd queries; then payload triples, tied with half the queries
        for array, queries in (([2 * i for i in range(n)], [2 * r - 1 for r in ranks]),
                               ([2 * (i // 3) for i in range(n)], [r - 1 for r in ranks])):
            ledger, ids = new_session(array + queries)
            add(ledger, [search.exp_search(ledger, ids[:n], q) for q in ids[n:]])
            ledger, ids = new_session(array + queries)
            view = search.make_view(ids[:n])
            offsets = search.build_offset_structure(view)
            answers = []
            for q in ids[n:]:
                used = []
                answers.append([search.offset_search(ledger, view, offsets, q, used), used])
            add(ledger, answers)
            ledger, ids = new_session(array + queries)
            rng = np.random.default_rng(seed)
            add(ledger, [search.randomized_search(ledger, ids[:n], q, rng) for q in ids[n:]])
    for seed in (1, 2, 3):
        for dup in (False, True):
            rng = np.random.default_rng(seed)
            for vals in (generators.gen_controlled_inv(2000, 50 * seed ** 3, rng),
                         generators.gen_controlled_runs(4096, seed + 1, rng)):
                vals = generators.with_duplicates(vals) if dup else vals
                ledger, ids = new_session(vals)
                add(ledger, adaptive.sort_by_inv(ledger, ids))
                ledger, ids = new_session(vals)
                add(ledger, adaptive.median_by_runs(ledger, ids))
    assert digest.hexdigest() == "a09ee62d2d20c6b558c79ba90e3a42df7cde7c013ab54150367d69bb6dcc055c"


def test_report_round_trip_and_csv():
    spec = ExperimentSpec(algorithm="tournament_min", n=64, trials=3, seed=1)
    report = run_experiment(spec)
    again = Report.from_json(report.to_json())
    assert again.spec == report.spec and again.rows == report.rows
    csv_text = report.to_csv()
    header = csv_text.splitlines()[0].split(",")
    assert "frag_max" in header and len(csv_text.splitlines()) == 4


SMOKE_SPECS = [
    ExperimentSpec(algorithm="exp_search", generator="uniform_ranks", n=128, searches=200, trials=3),
    ExperimentSpec(algorithm="offset_search", generator="skewed_ranks", n=128, searches=200, trials=3),
    ExperimentSpec(algorithm="randomized_search", generator="uniform_ranks", n=128, searches=200, trials=3),
    ExperimentSpec(algorithm="select_kth", n=512, k=2, epsilon=0.25, trials=3),
    ExperimentSpec(algorithm="min_by_runs", generator="controlled_runs", n=256, runs=8, trials=3),
    ExperimentSpec(algorithm="min_by_inv", generator="controlled_inv", n=256, inv=40, trials=3),
    ExperimentSpec(algorithm="extract_sorted_run", generator="controlled_inv", n=256, inv=40, trials=3),
    ExperimentSpec(algorithm="median_by_runs", generator="controlled_runs", n=2048, runs=4, trials=3),
    ExperimentSpec(algorithm="median_by_inv", generator="controlled_inv", n=512, inv=64, trials=3),
    ExperimentSpec(algorithm="median_two_runs", generator="two_runs", n=256, split=100, trials=3),
    ExperimentSpec(algorithm="sort_by_inv", generator="controlled_inv", n=512, inv=64, trials=3),
    ExperimentSpec(algorithm="network_sort", n=256, trials=3),
    ExperimentSpec(algorithm="tournament_min", n=256, trials=3),
    ExperimentSpec(algorithm="mom_select", n=256, trials=3),
    ExperimentSpec(algorithm="small_median", n=256, trials=3),
]


def _at_size(spec, n, duplicates):
    """``spec`` at size ``n``, with its k, runs, inv and split clamped to fit."""
    clamp = lambda value, top: None if value is None else min(value, top)
    return dataclasses.replace(
        spec, n=n, duplicates=duplicates, k=clamp(spec.k, n - 1), runs=clamp(spec.runs, n),
        inv=clamp(spec.inv, n * (n - 1) // 2), split=clamp(spec.split, n),
    )


# every smoke spec as is, then at n = 1 and 2 with and without ties (a search
# draws its ranks and never reads ``duplicates``), and select_kth at k = 0
BOUND_SPECS = [pytest.param(s, id=f"{s.algorithm}-{s.generator}") for s in SMOKE_SPECS] + [
    pytest.param(_at_size(s, n, dup), id=f"{s.algorithm}-{s.generator}-n{n}" + "-dup" * dup)
    for s in SMOKE_SPECS
    for n in (1, 2)
    for dup in ((False,) if s.algorithm in SEARCHES else (False, True))
] + [
    pytest.param(ExperimentSpec(algorithm="select_kth", n=512, k=0, epsilon=0.25, trials=3),
                 id="select_kth-random-k0"),
]


@pytest.mark.parametrize("spec", BOUND_SPECS)
def test_every_algorithm_passes_its_default_bounds(spec):
    report = run_experiment(spec)
    names = default_bound_sets(spec.algorithm)
    assert names, spec.algorithm
    for name in names:
        ok, verdicts = verify(report, name)
        assert ok, (name, [v for v in verdicts if not v["passed"]])


def test_algorithm_registry_is_covered_by_smoke_specs():
    assert {s.algorithm for s in SMOKE_SPECS} == set(ALGORITHMS)


@pytest.mark.parametrize("spec", [pytest.param(s, id=s.algorithm) for s in SMOKE_SPECS])
def test_the_harness_never_uses_audit_mode(spec, monkeypatch):
    """Every verdict comes from the numpy oracle over the payload array."""
    def audit(*args):
        raise AssertionError("the harness read the ledger in audit mode")

    for name in ("sort_key", "payload", "audit_compare"):
        monkeypatch.setattr(ComparisonLedger, name, audit)
    assert run_experiment(spec).aggregates["correct_fraction"] == 1.0


@pytest.mark.parametrize("corrupt", [lambda R, I: ([R[1], R[0], *R[2:]], I),
                                     lambda R, I: (R[:-1], I)], ids=["two-swapped", "one-dropped"])
def test_a_wrong_extraction_reads_incorrect(corrupt, monkeypatch, tmp_path):
    """The oracle, not the algorithm, decides the extraction's verdict: an R
    out of order, or an R and I that miss an element, fail ``matches-oracle``."""
    extract = adaptive.extract_sorted_run
    monkeypatch.setattr(adaptive, "extract_sorted_run", lambda *args: corrupt(*extract(*args)))
    report_path, verdict_path = tmp_path / "report.json", tmp_path / "verdicts.txt"
    assert cli.main(["run", "--algo", "extract_sorted_run", "--generator", "controlled_inv",
                     "--n", "256", "--inv", "40", "--trials", "3", "--out", str(report_path)]) == 0
    rows = json.loads(report_path.read_text())["rows"]
    assert [row["correct"] for row in rows] == [False] * 3
    assert cli.main(["verify", "--report", str(report_path), "--out", str(verdict_path)]) == 1
    failed = [line for line in verdict_path.read_text().splitlines() if line.startswith("FAIL")]
    assert len(failed) == 3 and all(" matches-oracle " in line for line in failed)


def test_verify_rejects_mismatched_bound_set():
    report = run_experiment(ExperimentSpec(algorithm="network_sort", n=32, trials=1))
    with pytest.raises(ConfigError):
        verify(report, "min-runs")
    with pytest.raises(ConfigError):
        verify(report, "no-such-set")


def test_verify_fails_on_corrupted_report():
    spec = ExperimentSpec(algorithm="min_by_runs", generator="controlled_runs",
                          n=256, runs=8, trials=3)
    report = run_experiment(spec)
    report.rows[1]["frag_max"] = 10_000
    ok, verdicts = verify(report, "min-runs")
    assert not ok
    assert any(v["slack"] < 0 for v in verdicts)


def _select_report(rows):
    rows = [
        dict(trial=t, correct=True, branch="sampled", k=k, Sprime_size=size,
             fragility_of_selected_pre=1)
        for t, (k, size) in enumerate(rows)
    ]
    return Report(spec={"algorithm": "select_kth"}, rows=rows)


def _filtered_size_verdict(report):
    _, verdicts = verify(report, "select-expectations")
    (verdict,) = [v for v in verdicts if v["bound"] == "mean-filtered-size"]
    return verdict


@pytest.mark.parametrize("sizes", [(2, 20), (2, 26)], ids=["passes", "fails"])
def test_select_filtered_size_limit_uses_each_rows_k(sizes):
    """With k left unset, rows differ in k: the limit is the mean of the
    per-row limits 1.2·k′(k′+1), whichever row comes first."""
    limit = (1.2 * 1 * 2 + 1.2 * 4 * 5) / 2  # 13.2, for k = 1 and k = 4
    mean = sum(sizes) / 2
    for rows in ([(1, sizes[0]), (4, sizes[1])], [(4, sizes[1]), (1, sizes[0])]):
        verdict = _filtered_size_verdict(_select_report(rows))
        assert verdict["passed"] == (mean <= limit)
        assert verdict["slack"] == pytest.approx(limit - mean)


@pytest.mark.parametrize("k", [0, 2, 4, 8, 31])
@pytest.mark.parametrize("trials", [1, 3, 7, 150])
def test_select_filtered_size_limit_is_exact_at_fixed_k(k, trials):
    """A fixed-k report keeps the limit 1.2·k′(k′+1) to the last bit, so its
    verdict bytes do not move."""
    k1 = max(k, 1)
    sizes = [k1 * (k1 + 1) + t % 3 for t in range(trials)]
    verdict = _filtered_size_verdict(_select_report([(k, size) for size in sizes]))
    assert verdict["slack"] == 1.2 * k1 * (k1 + 1) - sum(sizes) / trials


def test_aggregate_reports_summary():
    reports = [
        run_experiment(ExperimentSpec(algorithm="tournament_min", n=64, trials=2)),
        run_experiment(ExperimentSpec(algorithm="network_sort", n=64, trials=2)),
    ]
    summary = aggregate_reports(reports)
    assert [r["algorithm"] for r in summary["runs"]] == ["tournament_min", "network_sort"]
    assert all(r["trials"] == 2 for r in summary["runs"])


def test_bound_set_registry_names_known_algorithms():
    for name, (allowed, _) in BOUND_SETS.items():
        for algo in allowed:
            assert algo in ALGORITHMS, (name, algo)


# ---------------------------------------------------------------------------
# CLI


def test_cli_generate_writes_values(tmp_path, capsys):
    out = tmp_path / "input.txt"
    rc = cli.main(["generate", "--generator", "controlled_runs", "--n", "32",
                   "--runs", "4", "--out", str(out)])
    assert rc == 0
    vals = [int(line) for line in out.read_text().splitlines()]
    assert sorted(vals) == list(range(32))
    assert _measured_disorder(vals)[0] == 4


def test_cli_generate_choices_are_the_generator_registry():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flag = next(a for a in sub.choices["generate"]._actions if a.dest == "generator")
    assert list(flag.choices) == list(SEQUENCE_GENERATORS)


def test_cli_generate_output_is_pinned(capsys):
    outputs = []
    for generator in ("random", "controlled_runs", "controlled_inv",
                      "adversarial_run_plus_one", "two_runs", "lower_bound"):
        for extra in ([], ["--duplicates"], ["--n", "77", "--runs", "5", "--inv", "40",
                                              "--split", "9", "--k", "30", "--seed", "3"]):
            assert cli.main(["generate", "--generator", generator, "--n", "50", *extra]) == 0
            outputs.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == "e2185aad5f0be04ca4d093f3f4bf8ccd3a6300bfb2bcec566b4b19ad32b6713e"


@pytest.mark.parametrize("generator,key", [("controlled_inv", "inv"), ("lower_bound", "k")])
def test_cli_generate_fills_unset_flags_as_run_does(generator, key, tmp_path, capsys):
    """An unset --inv or --k means n for both commands; seed 0 is trial 0's child seed."""
    assert cli.main(["generate", "--generator", generator, "--n", "8"]) == 0
    vals = [int(line) for line in capsys.readouterr().out.splitlines()]
    spec = ExperimentSpec(algorithm="network_sort", generator=generator, n=8, trials=1)
    assert vals == list(harness.generate(spec, np.random.default_rng(child_seed(0, 0))))
    if generator == "controlled_inv":
        assert _measured_disorder(vals)[1] == 8


def test_cli_run_verify_round_trip(tmp_path):
    report_path = tmp_path / "report.json"
    rc = cli.main(["run", "--algo", "min_by_runs", "--generator", "controlled_runs",
                   "--n", "256", "--runs", "8", "--trials", "3", "--out", str(report_path)])
    assert rc == 0
    rc = cli.main(["verify", "--report", str(report_path)])
    assert rc == 0
    verdict_path = tmp_path / "verdicts.txt"
    rc = cli.main(["verify", "--report", str(report_path),
                   "--bounds", "min-runs", "--out", str(verdict_path)])
    assert rc == 0
    lines = verdict_path.read_text().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_cli_verify_fails_on_corrupted_report(tmp_path):
    report_path = tmp_path / "report.json"
    assert cli.main(["run", "--algo", "min_by_runs", "--generator", "controlled_runs",
                     "--n", "256", "--runs", "8", "--trials", "3",
                     "--out", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    payload["rows"][0]["frag_max"] = 10_000
    report_path.write_text(json.dumps(payload))
    assert cli.main(["verify", "--report", str(report_path)]) == 1


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--algo", "no_such_algorithm"]) == 2
    assert cli.main(["run"]) == 2  # neither --spec nor --algo
    assert cli.main(["verify", "--report", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("line", ["n = abc", "duplicates = maybe", "epsilon = half", "k = 1.5",
                                  "n = 2, 4"])
def test_cli_run_rejects_a_malformed_spec_value(line, tmp_path, capsys):
    spec_path = tmp_path / "bad.spec"
    spec_path.write_text(f"algorithm = network_sort\n{line}\n", encoding="utf-8")
    assert cli.main(["run", "--spec", str(spec_path)]) == 2
    key, _, value = line.partition(" = ")
    err = capsys.readouterr().err
    assert repr(key) in err and repr(value) in err


@pytest.mark.parametrize("content", [
    b"not json", b'{"spec": {}', b"[1, 2]", b"{}", b"\xff\xfe",
    b'{"spec": [], "rows": []}',
    b'{"spec": {"algorithm": "network_sort"}, "rows": [{}]}',
    b'{"spec": {"algorithm": "network_sort"}, "rows": []}',
    b'{"spec": {"algorithm": "network_sort"}, "rows": [{"trial": 0}], "aggregates": 5}',
])
def test_cli_rejects_a_malformed_report(content, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    assert cli.main(["verify", "--report", str(path)]) == 2
    assert cli.main(["report", str(path)]) == 2
    assert capsys.readouterr().err.count(f"malformed report {path}") == 2


@pytest.mark.parametrize("value,message", [
    (None, "a row lacks 'frag_max'"),
    ("x", "a row value has the wrong type: '<=' not supported"),
], ids=["missing", "a string"])
def test_cli_verify_rejects_a_row_with_a_bad_bound_key(value, message, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(["run", "--algo", "min_by_runs", "--generator", "controlled_runs",
                     "--n", "64", "--runs", "4", "--trials", "2", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    if value is None:
        del payload["rows"][1]["frag_max"]
    else:
        payload["rows"][1]["frag_max"] = value
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", "--report", str(path)]) == 2
    assert f"malformed report {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["tournament_min", "network_sort"])
def test_cli_verify_rejects_a_float_size(algorithm, tmp_path, capsys):
    """A bound that takes ceil_log2 of the row's n reads a float n as malformed."""
    path = tmp_path / "report.json"
    assert cli.main(["run", "--algo", algorithm, "--n", "100", "--trials", "1",
                     "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["rows"][0]["n"] = 100.0
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", "--report", str(path)]) == 2
    assert f"malformed report {path}: a row value has the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm,edits", [
    ("network_sort", {"frag_max": 50, "depth_bound": 60}),  # the true depth bound is 28
    ("randomized_search", {"frag_mean": 100, "mean_budget": 200}),
], ids=["network-depth", "randomized-mean"])
def test_cli_verify_computes_each_limit_itself(algorithm, edits, tmp_path):
    """A limit stamped into the row is not read back: raising it with the
    value it limits cannot make a tampered report pass."""
    path = tmp_path / "report.json"
    assert cli.main(["run", "--algo", algorithm, "--n", "100", "--trials", "1",
                     "--searches", "100", "--out", str(path)]) == 0
    assert cli.main(["verify", "--report", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["rows"][0].update(edits)
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", "--report", str(path)]) == 1


@pytest.mark.parametrize("algorithm", ["exp_search", "offset_search", "randomized_search"])
@pytest.mark.parametrize("searches", ["0", "-1"])
def test_cli_run_rejects_fewer_than_one_search(algorithm, searches, capsys):
    argv = ["run", "--algo", algorithm, "--generator", "uniform_ranks", "--n", "16",
            "--trials", "1", "--searches", searches]
    assert cli.main(argv) == 2
    assert "searches" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["-1", "0", "2", "nan", "inf", "-inf"])
def test_cli_run_rejects_epsilon_outside_zero_to_one(epsilon, capsys):
    argv = ["run", "--algo", "select_kth", "--n", "1000", "--trials", "1", f"--epsilon={epsilon}"]
    assert cli.main(argv) == 2
    assert "epsilon" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="epsilon"):
        ExperimentSpec.from_mapping({"algorithm": "select_kth", "epsilon": epsilon})


@pytest.mark.parametrize("argv", [
    ["--algo", "select_kth", "--n", "1000", "--k", "0", "--epsilon", "0.25"],
    ["--algo", "randomized_search", "--generator", "uniform_ranks", "--n", "1", "--searches", "10"],
], ids=["select_kth-k0", "randomized_search-n1"])
def test_cli_verify_passes_at_a_degenerate_size(argv, tmp_path, capsys):
    """k = 0 still filters to |S'| >= 1, and n = 1 still costs a comparison per search."""
    report_path = tmp_path / "report.json"
    assert cli.main(["run", *argv, "--out", str(report_path)]) == 0
    assert cli.main(["verify", "--report", str(report_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_run_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    rc = cli.main(["run", "--algo", "tournament_min", "--n", "64", "--trials", "2",
                   "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0].split(",")[0] == "correct"


def test_cli_run_with_spec_file(tmp_path):
    spec_path = tmp_path / "exp.spec"
    spec_path.write_text("algorithm=network_sort\nn=64\ntrials=2\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"]["algorithm"] == "network_sort"


@pytest.mark.parametrize("flags", [["--seed", "99", "--n", "5"], ["--algo", "network_sort"],
                                   ["--duplicates"]], ids=["seed-n", "algo", "duplicates"])
def test_cli_run_rejects_spec_flags_beside_a_spec_file(flags, tmp_path, capsys):
    """A spec flag beside ``--spec`` exits 2, naming it, rather than be dropped."""
    spec_path = tmp_path / "exp.spec"
    spec_path.write_text("algorithm = tournament_min\nn = 64\ntrials = 2\nseed = 1\n",
                         encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(["run", "--spec", str(spec_path), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not out.exists()


def test_cli_report_aggregates(tmp_path, capsys):
    paths = []
    for algo in ("tournament_min", "network_sort"):
        p = tmp_path / f"{algo}.json"
        assert cli.main(["run", "--algo", algo, "--n", "64", "--trials", "2",
                         "--out", str(p)]) == 0
        paths.append(str(p))
    assert cli.main(["report", *paths]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(summary["runs"]) == 2
