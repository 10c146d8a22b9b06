"""`fragility sweep`: list-valued spec files, one summary line per combination."""

import json
import pathlib

import pytest

from fragility import calibration, cli
from fragility.harness import ExperimentSpec, read_spec_file, run_experiment
from fragility.primitives import ceil_log2

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


def _spec_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sweep(capsys, *argv):
    rc = cli.main(["sweep", *argv])
    return rc, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.spec")), ids=lambda p: p.name)
def test_every_checked_in_spec_file_expands_and_validates(path):
    """Every combination of a checked-in grid builds a valid spec; none runs."""
    jobs = cli._expand(str(path))
    assert jobs and all(isinstance(spec, ExperimentSpec) for _, _, spec in jobs)


def test_the_first_listed_key_varies_slowest(tmp_path, capsys):
    path = _spec_file(tmp_path, "grid.spec", "algorithm = min_by_runs\ngenerator = controlled_runs\n"
                      "n = 32, 64\ntrials = 1\nruns = 1, 2, 4\n")
    rc, lines = _sweep(capsys, path)
    assert rc == 0
    assert [line["varied"] for line in lines] == [
        {"n": n, "runs": runs} for n in (32, 64) for runs in (1, 2, 4)
    ]
    assert all(line["file"] == path for line in lines)


def test_a_bad_list_entry_exits_2_before_any_trial(tmp_path, capsys):
    good = _spec_file(tmp_path, "good.spec", "algorithm = network_sort\nn = 16\ntrials = 1\n")
    bad = _spec_file(tmp_path, "bad.spec", "algorithm = network_sort\nn = 16, abc\ntrials = 1\n")
    outdir = tmp_path / "out"
    assert cli.main(["sweep", good, bad, "--outdir", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not outdir.exists()
    assert f"{bad}: spec key 'n': cannot read 'abc'" in captured.err


@pytest.mark.parametrize("text,message", [
    ("algorithm = median_two_runs\ngenerator = two_runs\nn = 100\nsplit = 5, 500\n",
     "split=500 infeasible for n=100"),
    ("algorithm = select_kth\nn = 100\nk = 5, 100\n", "k=100 outside [0, 100)"),
    ("algorithm = median_two_runs\ngenerator = two_runs, random\nn = 100\n",
     "median_two_runs needs a two-run input: generator 'random' can give more runs at n=100"),
    # an unset inv means n, which no permutation of 2 elements has
    ("algorithm = median_by_inv\ngenerator = controlled_inv\nn = 64, 2\n", "inv=2 infeasible for n=2"),
])
def test_an_infeasible_list_entry_exits_2_before_any_trial(text, message, tmp_path, capsys):
    """The first combination is valid, the second not: neither runs."""
    path = _spec_file(tmp_path, "bad.spec", text + "trials = 1\n")
    outdir = tmp_path / "out"
    assert cli.main(["sweep", path, "--outdir", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not outdir.exists()
    assert f"{path}: {message}" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["--generator", "controlled_runs", "--n", "1"], "runs=2 infeasible for n=1"),
    (["--generator", "controlled_inv", "--n", "2"], "inv=2 infeasible for n=2"),
], ids=["runs", "inv"])
def test_run_rejects_an_infeasible_default_target_before_any_trial(argv, message, monkeypatch,
                                                                   capsys):
    """An unset runs means 2 and an unset inv n: neither fits these sizes."""
    def no_trial(spec):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_experiment", no_trial)
    assert cli.main(["run", "--algo", "min_by_runs", *argv]) == 2
    assert message in capsys.readouterr().err


def test_two_combinations_with_one_report_name_exit_2(tmp_path, capsys):
    """Same-stem files in two directories would write one report over the other."""
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(_spec_file(tmp_path / sub, "x.spec", "algorithm = network_sort\nn = 8\n"))
    assert cli.main(["sweep", *paths, "--outdir", str(tmp_path / "out")]) == 2
    assert "share a report name" in capsys.readouterr().err


def test_run_spec_rejects_a_list_value(tmp_path, capsys):
    path = _spec_file(tmp_path, "list.spec", "algorithm = network_sort, tournament_min\nn = 16\n")
    assert cli.main(["run", "--spec", path]) == 2
    assert "unknown algorithm 'network_sort, tournament_min'" in capsys.readouterr().err


def test_a_swept_report_equals_run_on_that_combination(tmp_path, capsys):
    path = _spec_file(tmp_path, "sel.spec", "algorithm = select_kth\nn = 256\nk = 1, 2\n"
                      "epsilon = 0.5\ntrials = 3\nseed = 4\n")
    outdir = tmp_path / "out"
    rc, lines = _sweep(capsys, path, "--outdir", str(outdir))
    assert rc == 0 and len(lines) == 2
    single = _spec_file(tmp_path, "one.spec", "algorithm = select_kth\nn = 256\nk = 2\n"
                        "epsilon = 0.5\ntrials = 3\nseed = 4\n")
    out = tmp_path / "one.json"
    assert cli.main(["run", "--spec", single, "--out", str(out)]) == 0
    assert (outdir / "sel-k=2.json").read_bytes() == out.read_bytes()
    assert sorted(p.name for p in outdir.iterdir()) == ["sel-k=1.json", "sel-k=2.json"]


def test_a_failing_bound_exits_1_with_its_slack(tmp_path, capsys):
    """At n = 3 a fixed extraction and merge cost exceeds the envelope fitted at 2^15."""
    path = _spec_file(tmp_path, "small.spec", "algorithm = sort_by_inv\n"
                      "generator = adversarial_run_plus_one\nn = 3\ntrials = 3\nseed = 3\n")
    rc, [line] = _sweep(capsys, path)
    assert rc == 1
    bound = line["bounds"]["sort-inv-envelope"]["sort-inv-envelope"]
    assert bound["passed"] is False and round(bound["min_slack"], 2) == -0.98
    assert line["bounds"]["oracle-agreement"]["matches-oracle"]["passed"] is True


def test_the_printed_ratio_is_value_over_limit(tmp_path, capsys):
    path = _spec_file(tmp_path, "one.spec", "algorithm = min_by_runs\ngenerator = controlled_runs\n"
                      "n = 200\nruns = 5\ntrials = 1\nseed = 9\n")
    rc, [line] = _sweep(capsys, path)
    assert rc == 0
    [row] = run_experiment(ExperimentSpec.from_mapping(read_spec_file(path))).rows
    limit = 2 + ceil_log2(row["runs"])
    summary = line["bounds"]["min-runs"]["min-runs-fragility"]
    assert summary["max_ratio"] == row["frag_max"] / limit
    assert summary["min_slack"] == limit - row["frag_max"]
    assert line["means"]["frag_max"] == row["frag_max"] and "seed" not in line["means"]
    # no bound with a positive limit: the correctness check has limit 0
    assert line["bounds"]["oracle-agreement"]["matches-oracle"]["max_ratio"] is None


def test_frozen_times_max_ratio_measures_the_envelope_constants(tmp_path, capsys):
    """Every envelope is linear in its constant, so the constant at which the
    envelope would just hold is the frozen one times the largest ratio."""
    common = "n = 1024\ntrials = 3\nseed = 7\n"
    paths = [
        _spec_file(tmp_path, "runs.spec", "algorithm = median_by_runs\n"
                   "generator = controlled_runs\nruns = 4, 16, 64\n" + common),
        _spec_file(tmp_path, "inv.spec", "algorithm = median_by_inv, sort_by_inv\n"
                   "generator = controlled_inv\ninv = 16, 256, 4096\n" + common),
        _spec_file(tmp_path, "rand.spec", "algorithm = randomized_search\n"
                   "generator = uniform_ranks\nsearches = 10000\n" + common),
    ]
    rc, lines = _sweep(capsys, *paths)
    assert rc == 0
    frozen = {
        "median-runs-envelope": calibration.C_MED,
        "median-inv-envelope": calibration.C_MI,
        "sort-inv-envelope": calibration.C_S,
        "mean-fragility-budget": calibration.RANDOMIZED_MEAN_FACTOR,
    }
    worst: dict = {}
    for line in lines:
        for bounds in line["bounds"].values():
            for bound, summary in bounds.items():
                if bound in frozen:
                    worst[bound] = max(worst.get(bound, 0.0), summary["max_ratio"])
    measured = {bound: f"{frozen[bound] * ratio:.4g}" for bound, ratio in worst.items()}
    assert measured == {
        "median-runs-envelope": "4.373",
        "median-inv-envelope": "0.9777",
        "sort-inv-envelope": "1.035",
        "mean-fragility-budget": "1.065",
    }
