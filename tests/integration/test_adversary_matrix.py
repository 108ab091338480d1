"""Integration: the full adversary x protocol matrix.

Every registered strategy, against every terminating core protocol, at
n > 3f with rushing enabled: nothing may break.  This is the closest a
test suite gets to the paper's "for all Byzantine behaviours" quantifier.
"""

import pytest

from repro.adversary import STRATEGY_BUILDERS, build_strategy
from repro.analysis.verdicts import Agreement, GoodRound
from repro.core import (
    BinaryKingConsensus,
    ByzantineRenaming,
    EarlyConsensus,
    InteractiveConsistency,
    ParallelConsensus,
    RotorCoordinator,
    TerminatingReliableBroadcast,
)
from repro.core.approx_agreement import ApproximateAgreement

from tests.conftest import assert_holds, predict_ids, run_quick

PROTOCOLS = {
    "consensus": lambda nid, i: EarlyConsensus(i % 2),
    "binary-king": lambda nid, i: BinaryKingConsensus(i % 2),
    "renaming": lambda nid, i: ByzantineRenaming(),
    "parallel": lambda nid, i: ParallelConsensus({"k": i % 2}),
    "interactive-consistency": lambda nid, i: InteractiveConsistency(i),
}

#: Protocol each wrapping strategy impersonates, per protocol under test.
HONEST = {
    "consensus": lambda: EarlyConsensus(0),
    "binary-king": lambda: BinaryKingConsensus(0),
    "approx": lambda: ApproximateAgreement(0.0, iterations=5),
    "renaming": lambda: ByzantineRenaming(),
    "parallel": lambda: ParallelConsensus({"k": 0}),
    "interactive-consistency": lambda: InteractiveConsistency(0),
}


@pytest.mark.parametrize("strategy_name", STRATEGY_BUILDERS)
def test_matrix_approx(strategy_name):
    """Approximate agreement promises ε-closeness inside the input
    range, not exact agreement — judged accordingly."""
    inputs = [float(i) for i in range(7)]
    result = run_quick(
        correct=7,
        byzantine=2,
        seed=11,
        rushing=True,
        protocol_factory=lambda nid, i: ApproximateAgreement(
            inputs[i], iterations=5
        ),
        strategy_factory=build_strategy(
            strategy_name, protocol_factory=HONEST["approx"]
        ),
        max_rounds=40,
    )
    outputs = list(result.outputs.values())
    assert len(outputs) == 7
    assert min(inputs) <= min(outputs) <= max(outputs) <= max(inputs)
    assert max(outputs) - min(outputs) <= (max(inputs) - min(inputs)) / 2**4


@pytest.mark.parametrize("strategy_name", STRATEGY_BUILDERS)
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_matrix(protocol_name, strategy_name):
    result = run_quick(
        correct=7,
        byzantine=2,
        seed=11,
        rushing=True,
        protocol_factory=PROTOCOLS[protocol_name],
        strategy_factory=build_strategy(
            strategy_name, protocol_factory=HONEST[protocol_name]
        ),
        max_rounds=400,
    )
    assert_holds(result, Agreement(result.correct_ids))


@pytest.mark.parametrize("strategy_name", STRATEGY_BUILDERS)
def test_matrix_rotor(strategy_name):
    result = run_quick(
        correct=7,
        byzantine=2,
        seed=11,
        rushing=True,
        protocol_factory=lambda nid, i: RotorCoordinator(opinion=i),
        strategy_factory=build_strategy(
            strategy_name,
            protocol_factory=lambda: RotorCoordinator(opinion=99),
        ),
        max_rounds=120,
    )
    assert_holds(result, GoodRound(result.correct_ids))


@pytest.mark.parametrize("strategy_name", STRATEGY_BUILDERS)
def test_matrix_trb(strategy_name):
    correct_ids, _ = predict_ids(11, 7, 2)
    sender = correct_ids[0]
    result = run_quick(
        correct=7,
        byzantine=2,
        seed=11,
        rushing=True,
        protocol_factory=lambda nid, i: TerminatingReliableBroadcast(
            sender, "m" if nid == sender else None
        ),
        strategy_factory=build_strategy(
            strategy_name,
            protocol_factory=lambda: TerminatingReliableBroadcast(
                sender, None
            ),
        ),
        max_rounds=400,
    )
    assert_holds(result, Agreement(result.correct_ids))
    assert result.distinct_outputs == {"m"}
