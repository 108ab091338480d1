"""Integration: the n > 3f frontier is real in both directions.

The paper's headline claim is optimal resiliency: everything works at
n = 3f + 1, and the bound is tight — a suitable adversary breaks
agreement once 3f >= n.  These tests pin both sides.
"""

import pytest

from repro.adversary import QuorumSplitterStrategy, SilentStrategy
from repro.adversary.base import ByzantineStrategy
from repro.core.consensus import EarlyConsensus
from repro.errors import SimulationError

from tests.conftest import run_quick


class TestInsideTheBound:
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_tight_configurations_agree(self, f):
        result = run_quick(
            correct=2 * f + 1,
            byzantine=f,
            seed=f,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: QuorumSplitterStrategy(
                EarlyConsensus(0)
            ),
            max_rounds=500,
        )
        assert result.agreed


class FullSplitAdversary(ByzantineStrategy):
    """At 3f >= n the adversary can keep two halves permanently split:
    it completes each half's quorums with that half's own value."""

    def on_round(self, view):
        from repro.sim.message import Send

        if view.round == 1:
            return [Send("init", (None,))]
        ordered = sorted(view.correct_nodes)
        half = len(ordered) // 2
        lower, upper = ordered[:half], ordered[half:]
        sends = []
        for kind in ("input", "prefer", "strongprefer"):
            sends.extend(Send(kind, (0,), dests=(d,)) for d in lower)
            sends.extend(Send(kind, (1,), dests=(d,)) for d in upper)
        return sends


class TestBeyondTheBound:
    def test_violation_observable_at_3f_geq_n(self):
        """With f = n/3 the splitter can force disagreement or livelock
        on at least one seed."""
        broken = 0
        for seed in range(6):
            try:
                result = run_quick(
                    correct=6,
                    byzantine=3,  # n=9, 3f=9 >= n
                    seed=seed,
                    rushing=True,
                    protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
                    strategy_factory=lambda nid, i: FullSplitAdversary(),
                    max_rounds=150,
                    enforce_resiliency=False,
                )
                if not result.agreed:
                    broken += 1
            except SimulationError:
                broken += 1
        assert broken > 0

    def test_far_beyond_bound_breaks_reliably(self):
        broken = 0
        for seed in range(4):
            try:
                result = run_quick(
                    correct=4,
                    byzantine=4,  # n=8, 3f=12 >> n
                    seed=seed,
                    rushing=True,
                    protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
                    strategy_factory=lambda nid, i: FullSplitAdversary(),
                    max_rounds=150,
                    enforce_resiliency=False,
                )
                if not result.agreed:
                    broken += 1
            except SimulationError:
                broken += 1
        assert broken >= 3

    def test_benign_adversary_does_not_prove_the_bound(self):
        """Sanity: merely *having* too many Byzantine nodes does not by
        itself break runs when they act benignly — the bound is about
        worst-case behaviour."""
        result = run_quick(
            correct=6,
            byzantine=3,
            seed=0,
            protocol_factory=lambda nid, i: EarlyConsensus(1),
            strategy_factory=lambda nid, i: SilentStrategy(),
            max_rounds=150,
            enforce_resiliency=False,
        )
        assert result.agreed
