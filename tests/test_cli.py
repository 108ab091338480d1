"""Tests for the command-line interface."""

import pytest

from benchmarks._harness import RESULTS_DIR
from repro.analysis import campaign
from repro.analysis.campaign import evaluate_spec
from repro.cli import build_parser, main
from repro.scenario import RunSpec


def table_rows(out: str) -> list[dict]:
    """The rows of the one markdown table in *out*, column -> cell."""
    lines = [line for line in out.splitlines() if line.startswith("|")]

    def cells(line: str) -> list[str]:
        return [cell.strip() for cell in line.strip("|").split("|")]

    header = cells(lines[0])
    return [dict(zip(header, cells(line))) for line in lines[2:]]


def crash_when(monkeypatch, doomed) -> None:
    """Make every run whose spec satisfies *doomed* raise mid-run."""
    real = campaign.run_spec

    def run_spec(spec, *, bus=None):
        if doomed(spec):
            raise RuntimeError("boom")
        return real(spec, bus=bus)

    monkeypatch.setattr(campaign, "run_spec", run_spec)


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
        captured = capsys.readouterr()
        assert code == 0
        assert "| f " in captured.out
        assert "claim broken" not in captured.err

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
        # recipient, 970 of them), re-recorded for event schema v2,
        # whose header, run-start and closing run-end lines are the
        # only ones that differ.
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
        assert f"events   : 1198 -> {path}" in out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ba6d66ec12955e81c0ce89845220bf02"
            "0245738710a291e8604fb2849414a7b9"
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
        path = RunSpec(protocol="consensus", n=7, f=2, seed=4).save(
            tmp_path / "spec.json"
        )
        code = main(["run", "--scenario", str(path), "--seed", "9"])
        assert code == 0
        assert "seed=9" in capsys.readouterr().out

    def test_run_without_protocol_or_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["run"])

    @pytest.mark.parametrize("command", ["run", "campaign"])
    @pytest.mark.parametrize(
        "text,message",
        [
            (
                '{"protocol": "consensus", "n": 4, "rushing": "false"}',
                "RunSpec field 'rushing' must be bool, got 'false'",
            ),
            (
                '{"protocol": "consensus", "n": ',
                "not JSON: Expecting value: line 1 column 32 (char 31)",
            ),
            ('["consensus", 4]', "not a RunSpec object"),
        ],
        ids=["mistyped", "not-json", "not-an-object"],
    )
    def test_bad_spec_file_is_an_error_line_and_exit_2(
        self, tmp_path, capsys, command, text, message
    ):
        # Exit 2 is a file that is not a spec; 1 stays a violated verdict.
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code = main([command, "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


    @pytest.mark.parametrize("command", ["run", "campaign"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n": 0}, "n must be positive"),
            ({"n": 4, "f": 2}, "n=4, f=2 violates n > 3f"),
            ({"protocol": "nope"}, "unknown protocol 'nope'"),
            ({"variant": "nope"}, "protocol 'consensus' has no 'nope'"),
            ({"n": 10, "id_space": 5}, "id_space=5 cannot hold n=10"),
            ({"f": 1, "adversary": "nope"}, "unknown adversary 'nope'"),
        ],
        ids=["n0", "n4f2", "protocol", "variant", "id-space", "adversary"],
    )
    def test_spec_that_can_never_run_is_an_input_error(
        self, tmp_path, capsys, command, doc, message
    ):
        # Not a crash verdict and not a campaign violation: exit 2
        # before anything is judged.
        path = RunSpec.from_json_dict(
            {"protocol": "consensus", "n": 4, **doc}
        ).save(tmp_path / "never.json")
        runs = ["--runs", "2"] if command == "campaign" else []
        code = main([command, "--scenario", str(path), *runs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("command", ["run", "campaign"])
    def test_flags_that_can_never_run_are_an_input_error(
        self, capsys, command
    ):
        code = main([command, "consensus", "--n", "4", "--f", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: n=4, f=2 violates n > 3f")


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


class TestSweep:
    """``repro sweep``: one row per f, every run judged like a campaign's."""

    def sweep(self, capsys, *argv, code=0):
        assert main(["sweep", *argv]) == code
        return table_rows(capsys.readouterr().out)

    def test_rows_per_point(self, capsys):
        rows = self.sweep(
            capsys, "consensus", "--n", "4", "--max-f", "1", "--seeds", "3",
            "--max-rounds", "50",
        )
        assert [row["f"] for row in rows] == ["0", "1"]
        assert all(
            row[column] == "100"
            for row in rows
            for column in ("agreement ok%", "termination ok%")
        )

    def test_judge_failures_counted(self, capsys):
        # f=3 of n=6 under a rushing splitter finishes with split
        # decisions: a verdict failure of a run that did finish.
        rows = self.sweep(
            capsys, "consensus", "--n", "6", "--max-f", "3", "--seeds", "1",
            "--adversary", "splitter", "--rushing", "--max-rounds", "60",
        )
        assert rows[3]["agreement ok%"] == "0"
        assert rows[3]["rounds(mean)"] == "7"

    def test_liveness_failures_counted_not_raised(self, capsys):
        # One round cannot possibly finish: the n > 3f claim breaks.
        rows = self.sweep(
            capsys, "consensus", "--n", "4", "--max-f", "0", "--seeds", "2",
            "--max-rounds", "1", code=1,
        )
        assert rows == [
            {"f": "0", "agreement ok%": "100", "termination ok%": "0",
             "rounds(mean)": "-", "rounds(max)": "-", "sends(mean)": "-"},
        ]

    def test_means_are_over_finished_runs(self, capsys):
        rows = self.sweep(
            capsys, "consensus", "--n", "7", "--max-f", "2", "--seeds", "3",
            "--adversary", "splitter", "--rushing",
        )
        runs = [
            evaluate_spec(
                RunSpec(
                    protocol="consensus", n=7, f=2, adversary="splitter",
                    rushing=True, seed=seed, max_rounds=500,
                    enforce_resiliency=False,
                )
            )
            for seed in range(3)
        ]
        rounds = sum(run["rounds"] for run in runs) / 3
        sends = sum(run["sends"] for run in runs) / 3
        assert rows[2]["rounds(mean)"] == f"{round(rounds, 1):g}"
        assert rows[2]["sends(mean)"] == f"{round(sends, 1):g}"

    def test_ok_share_counts_runs_with_every_verdict_held(
        self, capsys, monkeypatch
    ):
        crash_when(monkeypatch, lambda spec: spec.seed == 1)
        rows = self.sweep(
            capsys, "consensus", "--n", "4", "--max-f", "0", "--seeds", "2",
            code=1,
        )
        assert rows[0]["termination ok%"] == "50"
        assert rows[0]["agreement ok%"] == "100"

    def test_approx_is_judged_by_half_range_not_equal_outputs(self, capsys):
        rows = self.sweep(
            capsys, "approx", "--n", "10", "--max-f", "3", "--seeds", "3",
            "--adversary", "value-injector", "--rushing",
        )
        assert [
            (row["termination ok%"], row["half-range ok%"]) for row in rows
        ] == [("100", "100")] * 4

    def test_e5_is_a_sweep(self, capsys):
        # The committed E5 grid's points are f = 0..6 on one base spec.
        rows = self.sweep(
            capsys, "consensus", "--n", "10", "--max-f", "6", "--adversary",
            "full-split", "--rushing", "--max-rounds", "150", "--seeds", "10",
        )
        committed = table_rows((RESULTS_DIR / "e5_resiliency.md").read_text())
        for row in committed:
            del row["n"]
        assert rows == committed

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "consensus", "--seeds", "0"],
            ["sweep", "consensus", "--max-f", "-1"],
            ["matrix", "consensus", "--n", "4", "--f", "1", "--seeds", "0"],
        ],
    )
    def test_empty_grid_is_refused(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a grid needs")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "consensus", "--f", "9"],
            ["sweep", "consensus", "--force"],
            ["matrix", "consensus", "--adversary", "splitter"],
            ["matrix", "consensus", "--rushing"],
        ],
    )
    def test_flags_the_grid_sets_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


#: Specs that each harness used to judge its own way (all rushing).
DISPUTED = {
    "approx-value-injector": RunSpec(
        protocol="approx", n=10, f=3, adversary="value-injector",
        rushing=True,
    ),
    "total-order-crash": RunSpec(
        protocol="total-order", n=7, f=3, adversary="crash", rushing=True,
        enforce_resiliency=False,
    ),
    "consensus-two-rounds": RunSpec(
        protocol="consensus", n=7, f=2, rushing=True, max_rounds=2
    ),
    "consensus-echo-forger": RunSpec(
        protocol="consensus", n=9, f=3, adversary="echo-forger",
        rushing=True, enforce_resiliency=False,
    ),
}


class TestOneJudge:
    """``repro run``, ``matrix`` and campaigns give a spec one verdict."""

    @pytest.mark.parametrize("name", sorted(DISPUTED))
    def test_run_prints_the_campaign_verdicts(self, name, tmp_path, capsys):
        spec = DISPUTED[name]
        verdicts = evaluate_spec(spec)["verdicts"]
        code = main(["run", "--scenario", str(spec.save(tmp_path / "s.json"))])
        lines = capsys.readouterr().out.splitlines()
        expected = [
            f"{monitor}: {'OK' if message is None else message}"
            for monitor, message in verdicts.items()
        ]
        assert lines[-len(expected):] == expected
        assert lines[-len(expected) - 1].startswith(("outputs", "scenario"))
        violated = any(message is not None for message in verdicts.values())
        assert code == (1 if violated else 0)

    def test_liveness_failure_is_a_verdict_not_a_traceback(self, capsys):
        code = main(
            ["run", "consensus", "--n", "7", "--f", "2", "--max-rounds", "2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "termination: liveness: round limit 2 exceeded" in (
            captured.out
        )
        assert "rounds   :" not in captured.out
        assert "Traceback" not in captured.err

    def test_crash_is_a_verdict(self, capsys, monkeypatch):
        crash_when(monkeypatch, lambda spec: True)
        code = main(["run", "consensus", "--n", "4", "--f", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "termination: crash: RuntimeError at repro/analysis/" in out
        assert out.rstrip().endswith(": boom")

    def test_matrix_counts_a_crash_as_failed(self, capsys, monkeypatch):
        crash_when(monkeypatch, lambda spec: spec.adversary == "noise")
        code = main(
            ["matrix", "consensus", "--n", "4", "--f", "1", "--seeds", "1"]
        )
        captured = capsys.readouterr()
        rows = {row["adversary"]: row for row in table_rows(captured.out)}
        assert code == 1
        assert rows["noise"]["termination ok%"] == "0"
        assert rows["noise"]["rounds(max)"] == "-"
        assert rows["silent"]["agreement ok%"] == "100"
        assert rows["silent"]["termination ok%"] == "100"
        assert "claim broken: matrix point 7: n > 3f" in captured.err
