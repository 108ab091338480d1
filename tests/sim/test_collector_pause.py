"""The collector pause around a run: counts and states, never timings.

``run_scenario``, ``evaluate_spec`` and ``repro run`` execute with
CPython's cyclic collector paused (DESIGN.md §4).  The pause must be
invisible except in ``gc.get_stats()``: it restores whatever collector
state it found — enabled, already disabled, nested, or unwinding an
exception — and changes nothing a run prints or returns.
"""

import gc

import pytest

from repro.analysis.campaign import _collections as collections
from repro.analysis.campaign import evaluate_spec
from repro.cli import main
from repro.core import EarlyConsensus
from repro.errors import RoundLimitExceeded
from repro.scenario import RunSpec
from repro.sim.runner import Scenario, collector_paused, run_scenario


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def consensus_scenario(correct=7, max_rounds=200) -> Scenario:
    return Scenario(
        correct=correct,
        protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
        max_rounds=max_rounds,
    )


class TestNoCollectionDuringARun:
    def test_evaluate_spec_runs_the_collector_zero_times(self, collector_on):
        # 10+ collections at the parent commit (n=300 allocates ~7k
        # long-lived tracked objects); all of them found nothing.
        spec = RunSpec(protocol="consensus", n=300, seed=3)
        gc.collect()
        before = collections()
        row = evaluate_spec(spec)
        assert collections() == before
        assert row["verdicts"] == {"agreement": None, "termination": None}

    def test_run_scenario_alone_pauses_too(self, collector_on):
        gc.collect()
        before = collections()
        result = run_scenario(consensus_scenario(correct=200))
        assert collections() == before
        assert result.agreed


class TestCollectorStateIsRestored:
    def test_enabled_stays_enabled(self, collector_on):
        evaluate_spec(RunSpec(protocol="consensus", n=7, f=2))
        assert gc.isenabled()

    def test_disabled_stays_disabled(self, collector_off):
        evaluate_spec(RunSpec(protocol="consensus", n=7, f=2))
        assert not gc.isenabled()
        run_scenario(consensus_scenario())
        assert not gc.isenabled()

    def test_nested_pause_resumes_only_at_the_outermost(self, collector_on):
        seen = []

        @collector_paused
        def outer():
            run_scenario(consensus_scenario())
            seen.append(gc.isenabled())  # the inner pause ended here

        outer()
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_when_the_run_raises(self, collector_on):
        with pytest.raises(RoundLimitExceeded):
            run_scenario(consensus_scenario(max_rounds=2))
        assert gc.isenabled()

    def test_restored_on_the_liveness_verdict_path(self, collector_on):
        # evaluate_spec catches the SimulationError and reports it.
        row = evaluate_spec(
            RunSpec(protocol="consensus", n=7, f=2, max_rounds=2)
        )
        assert row["verdicts"]["termination"].startswith("liveness:")
        assert gc.isenabled()

    def test_cli_run_restores_it(self, tmp_path, capsys, collector_on):
        path = RunSpec(protocol="consensus", n=7, f=2).save(
            tmp_path / "spec.json"
        )
        assert main(["run", "--scenario", str(path)]) == 0
        assert gc.isenabled()


class TestCliOutputUnchanged:
    """``repro run --scenario``: stdout and exit code as at the parent.

    The run's lines (scenario through outputs) are the bytes recorded
    before the collector pause; the verdict lines are ``judge``'s, one
    per monitor.
    """

    def test_passing_spec(self, tmp_path, capsys):
        path = RunSpec(
            protocol="consensus", n=7, f=2, adversary="splitter",
            rushing=True, seed=4,
        ).save(tmp_path / "ok.json")
        assert main(["run", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out == (
            "scenario : consensus n=7 f=2 adversary=splitter seed=4\n"
            "rounds   : 17\n"
            "messages : 228\n"
            "economy  : 45.60 msgs/decision over 5 decisions\n"
            "outputs  : {162501: 1, 247515: 1, 318032: 1, 415298: 1, "
            "502141: 1}\n"
            "agreement: OK\n"
            "termination: OK\n"
        )

    def test_violating_spec_exits_one(self, tmp_path, capsys):
        path = RunSpec(
            protocol="consensus", n=6, f=3, adversary="splitter",
            rushing=True, seed=0, enforce_resiliency=False, max_rounds=60,
        ).save(tmp_path / "bad.json")
        assert main(["run", "--scenario", str(path)]) == 1
        assert capsys.readouterr().out == (
            "scenario : consensus n=6 f=3 adversary=splitter seed=0\n"
            "rounds   : 7\n"
            "messages : 142\n"
            "economy  : 47.33 msgs/decision over 3 decisions\n"
            "outputs  : {42451: 0, 403959: 0, 933489: 1}\n"
            "agreement: agreement broken in round 7: node 933489 decided 1 "
            "but node 42451 decided 0\n"
            "termination: OK\n"
        )
