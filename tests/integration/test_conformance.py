"""Conformance: every theorem's checker over a configuration grid.

One test per (theorem, configuration) cell.  Where the adversary-matrix
test fixes the population and varies the attacker, this fixes a strong
attacker and varies the population shape — minimum sizes, tight
resiliency, lopsided correct/Byzantine ratios, and larger systems.
"""

import pytest

from repro.adversary import (
    EquivocatorStrategy,
    MembershipLiarStrategy,
    QuorumSplitterStrategy,
    ValueInjectorStrategy,
)
from repro.analysis.verdicts import (
    Agreement,
    BroadcastProperties,
    GoodRound,
    Validity,
)
from repro.core import (
    EarlyConsensus,
    IteratedApproximateAgreement,
    ReliableBroadcast,
    RotorCoordinator,
)

from tests.conftest import assert_holds, predict_ids, run_quick

#: (correct, byzantine) shapes: minimum, tight, generous, large.
SHAPES = [(3, 1), (7, 3), (12, 2), (21, 6)]


@pytest.mark.parametrize("correct,byzantine", SHAPES)
@pytest.mark.parametrize("seed", [0, 17])
class TestConsensusConformance:
    def test_agreement_and_validity(self, correct, byzantine, seed):
        inputs = [i % 3 for i in range(correct)]
        result = run_quick(
            correct=correct,
            byzantine=byzantine,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(inputs[i]),
            strategy_factory=lambda nid, i: QuorumSplitterStrategy(
                EarlyConsensus(0)
            ),
            max_rounds=2 + 5 * (2 * byzantine + 8),
        )
        assert_holds(result, Agreement(result.correct_ids))
        assert_holds(result, Validity(inputs))


@pytest.mark.parametrize("correct,byzantine", SHAPES)
class TestReliableBroadcastConformance:
    def test_all_three_properties(self, correct, byzantine):
        correct_ids, _ = predict_ids(4, correct, byzantine)
        sender = correct_ids[0]
        result = run_quick(
            correct=correct,
            byzantine=byzantine,
            seed=4,
            rushing=True,
            protocol_factory=lambda nid, i: ReliableBroadcast(
                sender, "m" if nid == sender else None
            ),
            strategy_factory=lambda nid, i: MembershipLiarStrategy(),
            max_rounds=8,
            until_all_halted=False,
        )
        assert_holds(
            result, BroadcastProperties(result.correct_ids, sender, "m")
        )


@pytest.mark.parametrize("correct,byzantine", SHAPES)
class TestRotorConformance:
    def test_good_round(self, correct, byzantine):
        result = run_quick(
            correct=correct,
            byzantine=byzantine,
            seed=6,
            rushing=True,
            protocol_factory=lambda nid, i: RotorCoordinator(opinion=i),
            strategy_factory=lambda nid, i: EquivocatorStrategy(
                RotorCoordinator(opinion=-1)
            ),
            max_rounds=3 * (correct + byzantine) + 20,
        )
        assert_holds(result, GoodRound(result.correct_ids))


@pytest.mark.parametrize("correct,byzantine", SHAPES)
class TestApproxConformance:
    def test_containment_and_halving(self, correct, byzantine):
        inputs = [float(i) for i in range(correct)]
        iterations = 6
        result = run_quick(
            correct=correct,
            byzantine=byzantine,
            seed=8,
            rushing=True,
            protocol_factory=lambda nid, i: IteratedApproximateAgreement(
                inputs[i], iterations=iterations
            ),
            strategy_factory=lambda nid, i: ValueInjectorStrategy(
                low=-1e9, high=1e9
            ),
            max_rounds=iterations + 4,
        )
        outputs = list(result.outputs.values())
        assert len(outputs) == correct
        assert min(inputs) <= min(outputs) <= max(outputs) <= max(inputs)
        spread = max(outputs) - min(outputs)
        budget = (max(inputs) - min(inputs)) / 2 ** (iterations - 1)
        assert spread <= budget + 1e-9
