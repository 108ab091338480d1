"""Stream verdicts: ``repro judge RUN.jsonl`` reads back what ``run``
judged live, and the streams that cannot be judged are refused."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from benchmarks.grid import SPECS_DIR
from repro.analysis import campaign
from repro.analysis.campaign import run_campaign
from repro.analysis.grid import load
from repro.analysis.verdicts import judge_stream, verdicts_for
from repro.cli import main
from repro.obs import ProtocolEvent, RunStarted
from repro.scenario import PROTOCOLS, RunSpec

from tests.replay_scenarios import SPECS, recording_path

#: Every verdict name ``verdicts_for`` can give.
NAMES = {
    "agreement",
    "chain-growth",
    "chain-prefix",
    "finality-lag",
    "good-round",
    "half-range",
    "parallel-consensus",
    "reliable-broadcast",
    "termination",
    "validity",
}

VIOLATIONS = sorted(
    (pathlib.Path(__file__).parents[1] / "data" / "violations").glob("*.json")
)

#: The spec whose half-range check once crashed with a KeyError: one
#: round is too few for any approx node to output.
APPROX_ONE_ROUND = {
    "protocol": "approx",
    "n": 7,
    "f": 2,
    "adversary": "equivocator",
    "seed": 1,
    "max_rounds": 1,
    "until_all_halted": False,
}


def verdict_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.split(":")[0] in NAMES]


def run_then_judge(spec_path, events, capsys) -> tuple:
    """``repro run --scenario SPEC --events F`` then ``repro judge F``:
    (run's exit code, its verdict lines, judge's exit code, its lines).
    """
    run_code = main(
        ["run", "--scenario", str(spec_path), "--events", str(events)]
    )
    run_out = capsys.readouterr().out
    judge_code = main(["judge", str(events)])
    judge_out = capsys.readouterr().out
    assert judge_out.splitlines() == verdict_lines(judge_out)
    return run_code, verdict_lines(run_out), judge_code, judge_out.splitlines()


def grid_points() -> list:
    return [
        pytest.param(spec, id=f"{path.stem}-{index}")
        for path in sorted(SPECS_DIR.glob("*.json"))
        for index, spec in enumerate(load(path).specs)
    ]


class TestJudgeReadsBackRun:
    @pytest.mark.parametrize("spec", grid_points())
    def test_seed_0_of_every_grid_point(self, spec, tmp_path, capsys):
        path = spec.save(tmp_path / "spec.json")
        run_code, run_lines, judge_code, judge_lines = run_then_judge(
            path, tmp_path / "run.jsonl", capsys
        )
        assert run_lines and judge_lines == run_lines
        assert judge_code == run_code

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_replay_specs(self, name, tmp_path, capsys):
        path = SPECS[name].save(tmp_path / "spec.json")
        run_code, run_lines, judge_code, judge_lines = run_then_judge(
            path, tmp_path / "run.jsonl", capsys
        )
        assert (judge_code, judge_lines) == (run_code, run_lines)
        # The committed recording is that very stream.
        assert main(["judge", str(recording_path(name))]) == run_code
        assert capsys.readouterr().out.splitlines() == run_lines

    @pytest.mark.parametrize("path", VIOLATIONS, ids=lambda p: p.stem)
    def test_committee_capture_still_violates(self, path, tmp_path, capsys):
        events = tmp_path / "run.jsonl"  # about half a gigabyte at n=200
        try:
            run_code, run_lines, judge_code, judge_lines = run_then_judge(
                path, events, capsys
            )
        finally:
            events.unlink(missing_ok=True)
        assert run_code == judge_code == 1
        assert judge_lines == run_lines

    def test_a_run_that_crashes_mid_run(self, tmp_path, capsys, monkeypatch):
        from repro.core.consensus import EarlyConsensus

        real = EarlyConsensus.on_round

        def on_round(self, api, inbox):
            if api.round == 3:
                raise RuntimeError("boom")
            real(self, api, inbox)

        monkeypatch.setattr(EarlyConsensus, "on_round", on_round)
        path = RunSpec(protocol="consensus", n=7, f=2).save(
            tmp_path / "spec.json"
        )
        run_code, run_lines, judge_code, judge_lines = run_then_judge(
            path, tmp_path / "run.jsonl", capsys
        )
        assert run_code == judge_code == 1
        assert judge_lines == run_lines
        assert judge_lines[0] == "agreement: OK"
        # The innermost package frame: the engine's call into on_round.
        assert re.fullmatch(
            r"termination: crash: RuntimeError at "
            r"repro/sim/network\.py:\d+: boom",
            judge_lines[1],
        )


class TestApproxWithoutOutputs:
    """A correct approx node with no output is a finding, not a crash."""

    def test_run_exits_1_naming_the_nodes(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(APPROX_ONE_ROUND))
        code = main(["run", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.out + captured.err
        (line,) = [
            line for line in captured.out.splitlines()
            if line.startswith("half-range: ")
        ]
        correct = RunSpec.from_json_dict(APPROX_ONE_ROUND)
        assert line.count("has no approx-output") == correct.n - correct.f

    def test_a_campaign_completes_and_reports_it(self):
        report = run_campaign(RunSpec.from_json_dict(APPROX_ONE_ROUND), 3)
        assert report.monitors["half-range"] == {
            "checked": 3, "violations": 3,
        }
        assert report.monitors["termination"]["violations"] == 0
        assert all(
            "has no approx-output" in record["message"]
            for record in report.violations
        )


def run_events(tmp_path, capsys) -> list[str]:
    """The lines of a small consensus run's recorded stream."""
    path = RunSpec(protocol="consensus", n=4, f=1).save(
        tmp_path / "spec.json"
    )
    events = tmp_path / "run.jsonl"
    main(["run", "--scenario", str(path), "--events", str(events)])
    capsys.readouterr()
    return events.read_text().splitlines()


class TestUnjudgeableStreams:
    def refused(self, lines, tmp_path, capsys) -> str:
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["judge", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (error,) = captured.err.splitlines()
        assert error.startswith(f"error: {path}: line ")
        return error[len(f"error: {path}: "):]

    def test_malformed_jsonl(self, tmp_path, capsys):
        lines = run_events(tmp_path, capsys)
        lines[4] = lines[4][:-1]
        assert self.refused(lines, tmp_path, capsys).startswith(
            "line 5: not JSON"
        )

    def test_schema_v1(self, tmp_path, capsys):
        lines = run_events(tmp_path, capsys)
        lines[0] = json.dumps({"topic": "schema", "v": 1})
        assert self.refused(lines, tmp_path, capsys) == (
            "line 1: a schema v2 header must open a judged stream (v1 "
            "carries no run description)"
        )

    def test_run_start_without_spec(self, tmp_path, capsys):
        lines = run_events(tmp_path, capsys)
        start = json.loads(lines[1])
        del start["spec"]
        lines[1] = json.dumps(start)
        assert self.refused(lines, tmp_path, capsys) == (
            "line 2: run-start has no spec: the run was not built from a "
            "RunSpec"
        )

    def test_truncated_stream(self, tmp_path, capsys):
        lines = run_events(tmp_path, capsys)[:-5]
        assert self.refused(lines, tmp_path, capsys) == (
            f"line {len(lines)}: no run-end: the stream is truncated"
        )

    def test_errors_are_event_stream_errors(self):
        from repro.errors import EventStreamError

        with pytest.raises(EventStreamError):
            judge_stream(['{"topic": "schema", "v": 2}', "{"])


class TestVerdictsFor:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_names_match_a_live_judge(self, protocol):
        spec = RunSpec(protocol=protocol, n=7, f=2, max_rounds=60)
        start = RunStarted("sim", spec.seed, spec.to_json_dict(), (1, 2))
        names = [verdict.name for verdict in verdicts_for(start)]
        _result, verdicts = campaign.judge(spec, campaign.EventBus())
        assert names == list(verdicts)
        assert "termination" in names

    def test_parallel_is_judged_on_theorem_10_1(self):
        spec = RunSpec(protocol="parallel", n=7, f=2, inputs="constant:1")
        start = RunStarted("sim", spec.seed, spec.to_json_dict(), (1, 2))
        (theorem,) = [
            verdict
            for verdict in verdicts_for(start)
            if verdict.name == "parallel-consensus"
        ]
        # Both correct nodes input ("k", 1); both output a fabricated pair.
        fabricated = [["k", 1], ["x", 9]]
        for node in (1, 2):
            theorem.on_event(
                ProtocolEvent(9, node, "decide", {"value": fabricated})
            )
        assert "fabrication: node 1 output ('x', 9)" in theorem.verdict()

    def test_parallel_instances_and_awareness_give_each_node_its_map(self):
        spec = RunSpec(
            protocol="parallel",
            n=4,
            f=1,
            inputs="constant:1",
            protocol_params={"instances": 3, "awareness": "partial"},
        )
        start = RunStarted("sim", spec.seed, spec.to_json_dict(), (5, 6, 7))
        (theorem,) = [
            verdict
            for verdict in verdicts_for(start)
            if verdict.name == "parallel-consensus"
        ]
        assert theorem.inputs == {
            5: {"id0": 1, "id2": 1},
            6: {"id1": 1},
            7: {"id0": 1, "id2": 1},
        }


class TestJudgeOnParallel:
    def test_run_and_judge_report_parallel_consensus(self, tmp_path, capsys):
        spec = RunSpec(
            protocol="parallel",
            n=7,
            f=2,
            adversary="equivocator",
            inputs="constant:1",
            protocol_params={"instances": 4, "awareness": "partial"},
            max_rounds=25,
        )
        path = spec.save(tmp_path / "spec.json")
        run_code, run_lines, judge_code, judge_lines = run_then_judge(
            path, tmp_path / "run.jsonl", capsys
        )
        assert run_code == judge_code == 0
        assert "parallel-consensus: OK" in judge_lines
        assert run_lines == judge_lines
