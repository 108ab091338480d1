"""Oracle comparison: sampled consensus vs full-broadcast consensus."""

import pytest

from repro.analysis.oracle import (
    OracleReport,
    OracleVerdict,
    alternating_inputs,
    check_sampled_agreement,
    compare_with_oracle,
    supermajority_inputs,
)
from repro.errors import PropertyViolation


class TestInputAssignments:
    def test_supermajority_is_seven_to_one(self):
        values = [supermajority_inputs("x", i) for i in range(80)]
        assert values.count(0) == 70
        assert values.count(1) == 10

    def test_alternating_is_even(self):
        values = [alternating_inputs("x", i) for i in range(80)]
        assert values.count(0) == values.count(1) == 40


class TestCompareWithOracle:
    def test_sampled_matches_oracle_and_costs_less(self):
        verdict = compare_with_oracle(120, seed=0)
        assert verdict.agree
        assert verdict.oracle_outcome == 0
        assert verdict.sampled_outcome == 0
        # The committee (98 of 120) already shaves broadcast traffic
        # at this small population; the gap widens with n.
        assert verdict.sampled_sends < verdict.oracle_sends

    def test_degenerate_population_always_agrees(self):
        # Below the polylog threshold the committee is everyone, so
        # the comparison is near-tautological — but must still pass.
        verdict = compare_with_oracle(40, seed=3)
        assert verdict.agree

    def test_a_violated_verdict_raises(self):
        # Each run is judged like a campaign's: two rounds cannot
        # finish, so the oracle run's termination verdict fails.
        with pytest.raises(PropertyViolation, match="termination: liveness"):
            compare_with_oracle(40, seed=0, max_rounds=2)


class TestCheckSampledAgreement:
    def test_explicit_seed_sequence(self):
        report = check_sampled_agreement(120, seeds=[0, 1, 2])
        assert isinstance(report, OracleReport)
        assert report.population == 120
        assert report.seeds_checked == 3
        assert report.all_agree
        assert report.disagreements == ()
        assert report.summary() == {
            "population": 120,
            "seeds_checked": 3,
            "all_agree": True,
            "disagreements": [],
        }

    def test_int_seeds_means_range(self):
        report = check_sampled_agreement(40, seeds=2)
        assert [v.seed for v in report.verdicts] == [0, 1]


class TestVerdictShape:
    def test_disagreement_is_reported_not_raised(self):
        bad = OracleVerdict(
            seed=9,
            oracle_outcome=0,
            sampled_outcome=1,
            sampled_rounds=12,
            oracle_sends=100,
            sampled_sends=50,
        )
        good = OracleVerdict(
            seed=10,
            oracle_outcome=0,
            sampled_outcome=0,
            sampled_rounds=12,
            oracle_sends=100,
            sampled_sends=50,
        )
        assert not bad.agree
        report = OracleReport(population=10, verdicts=(bad, good))
        assert not report.all_agree
        assert report.summary()["disagreements"] == [9]
