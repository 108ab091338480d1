"""Failure injection: crash storms, partial broadcasts, mixed adversaries.

Benign-but-nasty fault patterns (fail-stop at staggered rounds, crashes
mid-broadcast, different strategies on different Byzantine nodes) across
the protocol portfolio.
"""

import pytest

from repro.adversary import (
    CrashStrategy,
    EchoForgerStrategy,
    QuorumSplitterStrategy,
    SilentStrategy,
)
from repro.adversary.simple import HalfCrashStrategy
from repro.analysis.verdicts import Agreement
from repro.core import (
    ByzantineRenaming,
    EarlyConsensus,
    InteractiveConsistency,
    ParallelConsensus,
)

from tests.conftest import assert_holds, run_quick


class TestCrashStorms:
    @pytest.mark.parametrize("crash_round", [2, 4, 6, 9])
    def test_consensus_survives_any_crash_round(self, crash_round):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=crash_round,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: CrashStrategy(
                EarlyConsensus(i % 2), crash_round
            ),
        )
        assert_holds(result, Agreement(result.correct_ids))

    @pytest.mark.parametrize("seed", range(4))
    def test_half_crash_mid_broadcast(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: HalfCrashStrategy(
                EarlyConsensus(i % 2), crash_round=4 + i
            ),
        )
        assert_holds(result, Agreement(result.correct_ids))

    def test_staggered_crashes_across_byzantine_nodes(self):
        result = run_quick(
            correct=10,
            byzantine=3,
            seed=7,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: CrashStrategy(
                EarlyConsensus(i % 2), crash_round=3 + 2 * i
            ),
        )
        assert_holds(result, Agreement(result.correct_ids))


class TestMixedAdversaries:
    """Different Byzantine nodes running different attacks at once."""

    def mixed_factory(self, honest_factory):
        strategies = [
            lambda: QuorumSplitterStrategy(honest_factory()),
            lambda: EchoForgerStrategy(),
            lambda: SilentStrategy(),
        ]

        def build(node_id, index):
            return strategies[index % len(strategies)]()

        return build

    @pytest.mark.parametrize("seed", range(4))
    def test_consensus_under_mixed_attack(self, seed):
        result = run_quick(
            correct=10,
            byzantine=3,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=self.mixed_factory(
                lambda: EarlyConsensus(0)
            ),
        )
        assert_holds(result, Agreement(result.correct_ids))

    @pytest.mark.parametrize("seed", range(3))
    def test_renaming_under_mixed_attack(self, seed):
        result = run_quick(
            correct=10,
            byzantine=3,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: ByzantineRenaming(),
            strategy_factory=self.mixed_factory(
                lambda: ByzantineRenaming()
            ),
            max_rounds=150,
        )
        assert_holds(result, Agreement(result.correct_ids))

    @pytest.mark.parametrize("seed", range(3))
    def test_interactive_consistency_under_mixed_attack(self, seed):
        result = run_quick(
            correct=10,
            byzantine=3,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: InteractiveConsistency(i),
            strategy_factory=self.mixed_factory(
                lambda: InteractiveConsistency(0)
            ),
        )
        assert_holds(result, Agreement(result.correct_ids))


class TestScale:
    """Larger populations — the O(f)/O(n) budgets must hold at scale."""

    def test_consensus_forty_nodes(self):
        result = run_quick(
            correct=31,
            byzantine=9,
            seed=0,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: SilentStrategy(),
            max_rounds=2 + 5 * 25,
        )
        assert_holds(result, Agreement(result.correct_ids))

    def test_parallel_consensus_thirty_instances(self):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=1,
            protocol_factory=lambda nid, i: ParallelConsensus(
                {f"id{k}": k for k in range(30)}
            ),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        assert_holds(result, Agreement(result.correct_ids))
        (output,) = result.distinct_outputs
        assert len(output) == 30
