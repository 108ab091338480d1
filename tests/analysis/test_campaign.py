"""Monte Carlo campaign runner: seed derivation, determinism, artifacts."""

import itertools
import json
import multiprocessing
import re
import time

import pytest

from repro.analysis import campaign
from repro.analysis.campaign import (
    CampaignTiming,
    build_specs,
    derive_seed,
    evaluate_spec,
    format_campaign_report,
    run_campaign,
)
from repro.scenario import ChurnSpec, RunSpec

BASE = RunSpec(
    protocol="total-order",
    n=7,
    f=2,
    protocol_params={"event_first": 2, "event_last": 26, "event_every": 4},
    churn=ChurnSpec(
        "rate",
        {"join_rate": 0.1, "leave_rate": 0.05, "start": 10, "stop": 30},
    ),
    max_rounds=48,
)


class TestSeedDerivation:
    def test_pinned_values(self):
        # The derivation is part of the campaign's replay contract:
        # (campaign seed, index) -> run seed must never drift, or old
        # violation artifacts stop matching their reports.
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(0, 5) != derive_seed(1, 5)

    def test_seeds_fit_in_31_bits(self):
        for index in range(200):
            assert 0 <= derive_seed(12345, index) < 2**31

    def test_no_collisions_in_a_large_campaign(self):
        seeds = [derive_seed(7, index) for index in range(5000)]
        assert len(set(seeds)) == len(seeds)

    def test_build_specs_only_varies_the_seed(self):
        specs = build_specs(BASE, 4, campaign_seed=9)
        assert len(specs) == 4
        for index, spec in enumerate(specs):
            assert spec.seed == derive_seed(9, index)
            assert spec.protocol == BASE.protocol
            assert spec.churn == BASE.churn


class TestCampaign:
    def test_small_campaign_holds_all_monitors(self):
        report = run_campaign(BASE, runs=6, campaign_seed=0)
        assert report.ok
        assert report.runs == 6
        assert set(report.monitors) == {
            "chain-prefix", "chain-growth", "finality-lag", "termination",
        }
        for stats in report.monitors.values():
            assert stats["checked"] == 6
            assert stats["violations"] == 0

    def test_report_bytes_invariant_under_worker_count(self, tmp_path):
        serial = run_campaign(BASE, runs=6, campaign_seed=3, workers=1)
        pooled = run_campaign(BASE, runs=6, campaign_seed=3, workers=3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        serial.save(a)
        pooled.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_consensus_campaign_checks_agreement_and_termination(self):
        base = RunSpec(protocol="consensus", n=7, f=2,
                       adversary="splitter", rushing=True, max_rounds=60)
        report = run_campaign(base, runs=4)
        assert report.ok
        assert set(report.monitors) == {"agreement", "termination"}

    def test_violation_recorded_with_replay_artifact(self, tmp_path):
        # A one-round budget cannot finish: every run is a liveness
        # violation, and each violating spec is saved as a replayable
        # RunSpec artifact.
        doomed = RunSpec(protocol="consensus", n=4, max_rounds=1)
        report = run_campaign(
            doomed, runs=2, artifacts_dir=tmp_path / "artifacts"
        )
        assert not report.ok
        assert report.monitors["termination"]["violations"] == 2
        assert report.violation_rate("termination") == 1.0
        for record in report.violations:
            assert record["monitor"] == "termination"
            loaded = RunSpec.load(record["artifact"])
            assert loaded.seed == record["seed"]
            assert loaded == build_specs(doomed, 2, 0)[record["index"]]

    def test_report_json_and_table_round(self, tmp_path):
        report = run_campaign(BASE, runs=3)
        path = report.save(tmp_path / "report.json")
        doc = json.loads(path.read_text())
        assert doc["runs"] == 3
        assert doc["base"]["protocol"] == "total-order"
        text = format_campaign_report(report)
        assert "chain-prefix" in text
        assert "violation rate%" in text

    def test_progress_callback_fires_inline(self):
        ticks = []
        run_campaign(BASE, runs=3, progress=lambda done, total:
                     ticks.append((done, total)))
        assert ticks == [(1, 3), (2, 3), (3, 3)]


class TestCampaignTiming:
    def test_injected_clock_times_every_spec_and_the_pool(self):
        # A counting clock: one tick per read, so the serial schedule
        # is exact — one read opens the pool, two bracket each spec,
        # one closes the pool.
        ticks = itertools.count()
        timing = CampaignTiming(clock=lambda: float(next(ticks)))
        report = run_campaign(BASE, runs=4, campaign_seed=3, timing=timing)
        assert timing.spec_s == [1.0, 1.0, 1.0, 1.0]
        assert timing.wall_s == 9.0 and timing.workers == 1
        assert timing.to_json_dict() == {
            "runs": 4,
            "workers": 1,
            "specs_per_s": 4 / 9,
            "spec_s": {"p50": 1.0, "p75": 1.0, "max": 1.0},
            "wall_s": 9.0,
            "worker_s": 4.0,
            "pool_efficiency": 4 / 9,
            # Every run is paused for its lifetime (DESIGN.md §4).
            "collector_runs": 0,
        }
        # Beside the report, never in it.
        untimed = run_campaign(BASE, runs=4, campaign_seed=3)
        assert report.to_json_dict() == untimed.to_json_dict()

    def test_quantiles_are_nearest_rank(self):
        timing = CampaignTiming(clock=time.perf_counter, wall_s=2.0)
        timing.spec_s = [0.4, 0.1, 0.3, 0.2, 0.5]
        assert timing.to_json_dict()["spec_s"] == {
            "p50": 0.3, "p75": 0.4, "max": 0.5,
        }
        assert CampaignTiming(clock=time.perf_counter).to_json_dict()[
            "spec_s"
        ] is None

    def test_pooled_timing_leaves_report_bytes_alone(self, tmp_path):
        timing = CampaignTiming(clock=time.perf_counter)
        pooled = run_campaign(
            BASE, runs=6, campaign_seed=3, workers=3, timing=timing
        )
        serial = run_campaign(BASE, runs=6, campaign_seed=3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        pooled.save(a)
        serial.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert timing.workers == 3 and len(timing.spec_s) == 6
        assert all(seconds > 0 for seconds in timing.spec_s)
        assert timing.collector_runs == 0
        doc = json.loads(timing.save(tmp_path / "a.timing.json").read_text())
        assert doc["runs"] == 6 and doc["wall_s"] > 0
        assert doc["spec_s"]["p50"] <= doc["spec_s"]["p75"] <= (
            doc["spec_s"]["max"]
        )

    def test_collector_runs_counts_what_a_spec_collects(self, monkeypatch):
        # The sidecar's collector_runs is a gc.get_stats() delta across
        # each evaluate_spec: a run that collects by hand shows up.
        import gc

        from repro.analysis import campaign

        def collecting(spec):
            gc.collect()
            return evaluate_spec(spec)

        monkeypatch.setattr(campaign, "evaluate_spec", collecting)
        timing = CampaignTiming(clock=time.perf_counter)
        run_campaign(BASE, runs=3, timing=timing)
        assert timing.collector_runs == 3
        assert timing.to_json_dict()["collector_runs"] == 3

    def test_untimed_campaign_reads_no_collector_stats(self, monkeypatch):
        from repro.analysis import campaign

        def forbidden():
            raise AssertionError("an untimed campaign read gc stats")

        monkeypatch.setattr(campaign, "_collections", forbidden)
        assert run_campaign(BASE, runs=2).ok


class TestEvaluateSpec:
    def test_verdict_row_is_picklable_shape(self):
        row = evaluate_spec(BASE)
        assert row["verdicts"]["chain-prefix"] is None
        assert row["rounds"] == BASE.max_rounds
        assert row["chain_length"] > 0
        assert row["sends"] > 0


def crash_every_run(monkeypatch, owner=campaign, name="run_spec") -> None:
    def crashing(spec, *args, **kwargs):
        raise RuntimeError(f"boom {spec.seed}")

    monkeypatch.setattr(owner, name, crashing)


class TestCrashVerdict:
    """A run that raises is a ``termination`` finding, not a dead caller."""

    def test_message_names_type_location_and_message(self, monkeypatch):
        crash_every_run(monkeypatch)
        row = evaluate_spec(BASE)
        assert row == {
            "verdicts": {
                "chain-prefix": None,
                "termination": row["verdicts"]["termination"],
            },
            "rounds": None,
            "sends": None,
            "chain_length": None,
        }
        # The raising function lives outside the package, so the
        # location is the innermost package frame: judge's call.
        assert re.fullmatch(
            r"crash: RuntimeError at repro/analysis/campaign\.py:\d+: "
            rf"boom {BASE.seed}",
            row["verdicts"]["termination"],
        )

    def test_location_is_the_innermost_package_frame(self, monkeypatch):
        import repro.scenario.build as build

        crash_every_run(monkeypatch, build, "materialize")
        message = evaluate_spec(BASE)["verdicts"]["termination"]
        assert re.fullmatch(
            r"crash: RuntimeError at repro/scenario/build\.py:\d+: boom \d+",
            message,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_saves_each_crash_and_keeps_going(
        self, workers, monkeypatch, tmp_path
    ):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patch only when forked")
        crash_every_run(monkeypatch)
        report = run_campaign(
            BASE, runs=3, workers=workers, artifacts_dir=tmp_path
        )
        assert report.monitors["termination"] == {
            "checked": 3, "violations": 3,
        }
        assert report.monitors["chain-prefix"]["violations"] == 0
        assert [record["index"] for record in report.violations] == [0, 1, 2]
        for record in report.violations:
            assert record["message"].startswith("crash: RuntimeError at ")
            assert RunSpec.load(record["artifact"]).seed == record["seed"]
        assert len(list(tmp_path.glob("violation-*.json"))) == 3
