"""Self-check of the benchmark itself, driven through ``--quick``.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/e2e/test_e2e_selfcheck.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT, load_contract

CONTRACT = load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two quick suite runs of one seed: (stdout, result document) each."""
    out_dir = tmp_path_factory.mktemp("e2e")
    runs = []
    for label in ("a", "b"):
        out = out_dir / f"{label}.json"
        proc = run_benchmark("--quick", "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, json.loads(out.read_text("utf-8"))))
    return runs


def test_every_declared_name_is_printed_with_its_unit(quick_runs):
    stdout, _ = quick_runs[0]
    printed = {
        tuple(line.split()) for line in stdout.splitlines()
    }
    for workload in CONTRACT["workloads"]:
        assert NAME.fullmatch(workload["name"])
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            assert any(
                row[:2] == (workload["name"], metric["name"])
                and row[-1] == metric["unit"]
                for row in printed
                if len(row) == 4
            ), (workload["name"], metric["name"])


def test_two_quick_runs_give_identical_counts(quick_runs):
    (_, first), (_, second) = quick_runs
    for name, row in first["workloads"].items():
        other = second["workloads"][name]
        assert row["counts"] == other["counts"], name
        assert (
            row["end_to_end"]["sends_total"]
            == other["end_to_end"]["sends_total"]
        ), name
        assert [
            (op["seed"], op["rounds"], op["sends"]) for op in row["ops"]
        ] == [
            (op["seed"], op["rounds"], op["sends"]) for op in other["ops"]
        ], name


def test_no_op_fails_and_attribution_closes(quick_runs):
    for _, document in quick_runs:
        assert document["claim"] is None
        for name, row in document["workloads"].items():
            assert row["failed"] == 0 and row["attempted"] > 0, name
            assert row["closure"]["report_identical"], name
            assert (
                abs(row["closure"]["phase_sum_over_round_s"] - 1) <= 0.02
            ), name


def test_a_failing_verdict_is_a_failed_op_not_an_error_exit():
    # Three rounds cannot finish consensus: every op's termination
    # monitor reports a liveness violation, and the cold CLI run exits
    # non-zero; the benchmark must count them and still exit 0.
    proc = run_benchmark(
        "--workload", "consensus-large", "--quick", "--max-rounds", "3"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_compare_accepts_a_file_against_itself(quick_runs, tmp_path):
    path = tmp_path / "same.json"
    path.write_text(json.dumps(quick_runs[0][1]), encoding="utf-8")
    proc = run_benchmark("compare", str(path), str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout
