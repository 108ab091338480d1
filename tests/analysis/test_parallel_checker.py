"""Theorem 10.1's verdict over parallel-consensus pair-set outputs."""

import pytest

from repro.adversary import SilentStrategy
from repro.analysis.verdicts import ParallelOutputs, fold
from repro.core.parallel_consensus import ParallelConsensus
from repro.obs import ProtocolEvent

from tests.conftest import run_quick


def verdict(outputs: dict, inputs: dict) -> str | None:
    """Fold the verdict over one ``decide`` per node of *outputs*."""
    events = [
        ProtocolEvent(4, node, "decide", {"value": value})
        for node, value in outputs.items()
    ]
    return fold(events, ParallelOutputs([1, 2], inputs))[
        "parallel-consensus"
    ]


class TestSynthetic:
    def test_accepts_valid_run(self):
        out = (("a", 1), ("b", 2))
        inputs = {1: {"a": 1, "b": 2}, 2: {"a": 1, "b": 2}}
        assert verdict({1: out, 2: out}, inputs) is None

    def test_rejects_missing_universal_pair(self):
        inputs = {1: {"a": 1}, 2: {"a": 1}}
        assert "validity" in verdict({1: (), 2: ()}, inputs)

    def test_partial_pairs_may_be_dropped(self):
        inputs = {1: {"a": 1}, 2: {}}  # not universal: drop is legal
        assert verdict({1: (), 2: ()}, inputs) is None

    def test_rejects_fabricated_pair(self):
        out = (("ghost", 9),)
        assert "fabrication" in verdict({1: out, 2: out}, {1: {}, 2: {}})

    def test_rejects_value_not_input_by_anyone(self):
        out = (("a", 5),)
        inputs = {1: {"a": 1}, 2: {"a": 2}}
        assert "fabrication" in verdict({1: out, 2: out}, inputs)

    def test_value_from_some_correct_node_ok(self):
        out = (("a", 2),)
        inputs = {1: {"a": 1}, 2: {"a": 2}}
        assert verdict({1: out, 2: out}, inputs) is None

    def test_disagreement_propagates(self):
        inputs = {1: {"a": 1}, 2: {"a": 1}}
        message = verdict({1: (("a", 1),), 2: (("a", 2),)}, inputs)
        assert "agreement broken" in message


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(3))
    def test_real_runs_pass(self, seed):
        inputs_by_node = {}

        def factory(nid, i):
            pairs = {"x": 1} if i < 4 else {"x": 1, "y": 2}
            inputs_by_node[nid] = pairs
            return ParallelConsensus(pairs)

        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            protocol_factory=factory,
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        check = ParallelOutputs(result.correct_ids, inputs_by_node)
        assert fold(result.trace, check) == {"parallel-consensus": None}
