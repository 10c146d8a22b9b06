"""Smoke test of the benchmark: every workload at tiny sizes, traced and not.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _bench(*args, cwd=run.ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in expected]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_config()


def test_fails_without_the_package_source():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in ("run.py", "spans.py"):
        shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        proc = _bench("--workload", "small-many", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_trial_failures_are_per_trial_and_report_level_verdicts_are_kept_apart():
    rows = [{"trial": 0, "correct": True}, {"trial": 1, "correct": False}, {"trial": 2, "correct": True}]
    verdicts = (
        "PASS oracle-agreement matches-oracle trial=0 slack=0\n"
        "FAIL select-expectations mean-filtered-size trial=- slack=-1\n"
        "FAIL network-depth network-depth trial=2 slack=-3\n"
    )
    failed, report_level = run._failed_trials(rows, verdicts, [True, True, True])
    assert failed == {1, 2}
    assert report_level == ["FAIL select-expectations mean-filtered-size trial=- slack=-1"]
    failed, _ = run._failed_trials(rows, "", [True, False, True])
    assert failed == {1}
