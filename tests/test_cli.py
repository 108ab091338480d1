"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "consensus"])
        assert args.n == 10
        assert args.f == 3
        assert args.adversary == "silent"

    def test_sweep_defaults_force(self):
        args = build_parser().parse_args(["sweep", "consensus"])
        assert args.force is True

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonsense"])

    def test_rejects_unknown_adversary(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "consensus", "--adversary", "nonsense"]
            )


class TestCommands:
    def test_run_consensus_ok(self, capsys):
        code = main(
            ["run", "consensus", "--n", "7", "--f", "2", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement: OK" in out

    def test_run_with_wrapping_adversary(self, capsys):
        code = main(
            [
                "run",
                "consensus",
                "--n",
                "7",
                "--f",
                "2",
                "--adversary",
                "splitter",
                "--rushing",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "protocol", ["rotor", "approx", "renaming", "binary-consensus"]
    )
    def test_run_other_protocols(self, protocol, capsys):
        code = main(
            ["run", protocol, "--n", "7", "--f", "2", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rounds" in out

    def test_sweep_prints_table(self, capsys):
        code = main(
            [
                "sweep",
                "consensus",
                "--n",
                "7",
                "--max-f",
                "2",
                "--seeds",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "| f " in out
        assert "n>3f" in out

    def test_run_events_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        code = main(
            [
                "run",
                "consensus",
                "--n",
                "6",
                "--f",
                "1",
                "--events",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"-> {path}" in out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["topic"] == "schema"
        topics = {doc["topic"] for doc in lines[1:]}
        assert {"run-start", "round-start", "send", "deliver",
                "protocol"} <= topics

    def test_run_events_of_an_equivocator_match_the_scalar_era(
        self, tmp_path, capsys
    ):
        # Direct-send fan-outs travel the engine as single multicast
        # rows; the events file must not show it.  Digest recorded on
        # the commit before multicasts existed (one ``send`` line per
        # recipient, 970 of them).
        import hashlib

        path = tmp_path / "events.jsonl"
        code = main(
            [
                "run",
                "consensus",
                "--n",
                "10",
                "--f",
                "3",
                "--adversary",
                "equivocator",
                "--rushing",
                "--seed",
                "7",
                "--events",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "messages : 970" in out
        assert f"events   : 1197 -> {path}" in out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5589af3d51466fc2abd6c4188cec3040"
            "d1aacd0e7542d86137050a5477a851c1"
        )

    def test_run_events_of_a_replay_spec_are_its_recording(
        self, tmp_path, capsys
    ):
        from tests.replay_scenarios import SPECS, recording_path

        spec = SPECS["rotor"].save(tmp_path / "rotor.json")
        events = tmp_path / "rotor.jsonl"
        code = main(["run", "--scenario", str(spec), "--events", str(events)])
        assert code == 0
        assert f"-> {events}" in capsys.readouterr().out
        assert events.read_bytes() == recording_path("rotor").read_bytes()

    def test_matrix_command(self, capsys):
        code = main(
            [
                "matrix",
                "consensus",
                "--n",
                "7",
                "--f",
                "2",
                "--seeds",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "adversary matrix" in out
        assert "adaptive" in out

    def test_run_timeline_flag(self, capsys):
        code = main(
            [
                "run",
                "consensus",
                "--n",
                "4",
                "--f",
                "0",
                "--timeline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DEC=" in out

    def test_demo_impossibility(self, capsys):
        code = main(["demo", "impossibility"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Lemma 9.1" in out
        assert "disagreement     : True" in out


class TestScenarioFile:
    def test_run_from_scenario_file(self, tmp_path, capsys):
        from repro.scenario import RunSpec

        path = RunSpec(
            protocol="consensus", n=7, f=2, adversary="splitter",
            rushing=True, seed=4,
        ).save(tmp_path / "spec.json")
        code = main(["run", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement: OK" in out
        assert "seed=4" in out

    def test_seed_flag_overrides_scenario_seed(self, tmp_path, capsys):
        from repro.scenario import RunSpec

        path = RunSpec(protocol="consensus", n=7, f=2, seed=4).save(
            tmp_path / "spec.json"
        )
        code = main(["run", "--scenario", str(path), "--seed", "9"])
        assert code == 0
        assert "seed=9" in capsys.readouterr().out

    def test_run_without_protocol_or_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestCampaign:
    def test_small_total_order_campaign(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        code = main(
            [
                "campaign",
                "--runs", "4",
                "--max-rounds", "48",
                "--churn-param", "start=10",
                "--churn-param", "stop=30",
                "--protocol-param", "event_last=26",
                "--protocol-param", "event_every=4",
                "--out", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chain-prefix" in out
        assert "violation rate%" in out
        doc = json.loads(report.read_text())
        assert doc["runs"] == 4
        assert doc["base"]["protocol"] == "total-order"
        # The wall-clock goes to a sibling file, never into the report.
        assert "report.timing.json" in out and "specs/s" in out
        timing = json.loads((tmp_path / "report.timing.json").read_text())
        assert timing["runs"] == 4 and timing["workers"] == 1
        assert timing["specs_per_s"] > 0
        assert timing["collector_runs"] == 0
        assert set(timing) & set(doc) == {"runs"}

    def test_campaign_reports_violations_with_artifacts(
        self, tmp_path, capsys
    ):
        # A one-round budget cannot finish: exit 1 plus replay pointers.
        code = main(
            [
                "campaign",
                "consensus",
                "--n", "4",
                "--f", "0",
                "--churn", "none",
                "--max-rounds", "1",
                "--runs", "2",
                "--artifacts", str(tmp_path / "bad"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATIONS: 2" in out
        assert "repro run --scenario" in out
        artifacts = sorted((tmp_path / "bad").glob("*.json"))
        assert len(artifacts) == 2
