"""Generators, experiment runner determinism, bound verification, CLI."""

import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragility import cli, generators
from fragility.errors import ConfigError, InfeasibleTarget
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
    run_experiment,
    verify,
    _measured_disorder,
    _oracle_order,
)
from fragility.ledger import new_session

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
    ],
    ids=["n1", "n2", "n2-equal", "all-equal", "with-duplicates", "negative", "float-ties", "distinct"],
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
    assert from_array._values == from_list._values
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
    spec = ExperimentSpec.from_file(str(path))
    assert spec.algorithm == "min_by_runs" and spec.runs == 4 and spec.n == 256
    bad = tmp_path / "bad.spec"
    bad.write_text("algorithm min_by_runs\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        ExperimentSpec.from_file(str(bad))


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
    """Report bytes and verdicts (slack by repr) of the 30 specs, as of the
    bound and runner tables' introduction; a changed count shows up here."""
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
    assert digest == "802264578ee6f911b8460d7acddc5809dc3194a953c543364a64f095eb0ad2d1"


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
    assert digest == "4a7debba2525a384ec75b39971578a69ea4fe398257cd377c91bf21f5ad5e23f"


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
