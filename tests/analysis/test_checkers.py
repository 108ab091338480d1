"""The agreement, validity, approx and chain-prefix verdicts, folded
over hand-made event streams (including that they can fail).

These cases once pinned ``ScenarioResult``-reading checkers; the
verdicts of :mod:`repro.analysis.verdicts` read the events alone.
"""

from repro.analysis.verdicts import (
    Agreement,
    ChainPrefix,
    HalfRange,
    Validity,
    fold,
)
from repro.obs import ProtocolEvent


def decides(outputs: dict) -> list[ProtocolEvent]:
    return [
        ProtocolEvent(1, node, "decide", {"value": value})
        for node, value in outputs.items()
    ]


def approx_outputs(outputs: dict) -> list[ProtocolEvent]:
    return [
        ProtocolEvent(2, node, "approx-output", {"output": value})
        for node, value in outputs.items()
    ]


def chain_events(chains: dict) -> list[ProtocolEvent]:
    """Each node finalizes its whole chain in one ``to-chain`` event."""
    return [
        ProtocolEvent(
            9,
            node,
            "to-chain",
            {"final_through": chain[-1][0], "entries": chain},
        )
        for node, chain in chains.items()
        if chain
    ]


def held(events, verdict) -> bool:
    return fold(events, verdict)[verdict.name] is None


class TestAgreement:
    def test_accepts_unanimous(self):
        assert held(decides({1: "v", 2: "v"}), Agreement([1, 2]))

    def test_rejects_conflict(self):
        assert not held(decides({1: "v", 2: "w"}), Agreement([1, 2]))

    def test_rejects_missing_decision(self):
        verdicts = fold(decides({1: "v"}), Agreement([1, 2]))
        assert "never decided" in verdicts["agreement"]


class TestValidity:
    def test_accepts_valid_output(self):
        assert held(decides({1: 0, 2: 0}), Validity([0, 1]))

    def test_rejects_fabricated_output(self):
        assert not held(decides({1: 9}), Validity([0, 1]))

    def test_unanimous_inputs_pin_the_output(self):
        # inputs unanimous on 1, output 0 -> invalid twice over
        message = fold(decides({1: 0}), Validity([1, 1]))["validity"]
        assert "not a correct input" in message
        assert "unanimous input 1" in message


class TestApprox:
    def test_accepts_contained_and_halved(self):
        events = approx_outputs({1: 4.0, 2: 5.0})
        assert held(events, HalfRange([1, 2], [0.0, 10.0]))

    def test_rejects_escape(self):
        events = approx_outputs({1: 11.0})
        assert not held(events, HalfRange([1], [0.0, 10.0]))

    def test_rejects_insufficient_shrink(self):
        events = approx_outputs({1: 0.0, 2: 9.0})
        assert not held(events, HalfRange([1, 2], [0.0, 10.0]))

    def test_halving_optional(self):
        events = approx_outputs({1: 0.0, 2: 9.0})
        assert held(events, HalfRange([1, 2], [0.0, 10.0], halving=False))

    def test_zero_input_range(self):
        events = approx_outputs({1: 5.0, 2: 5.0})
        assert held(events, HalfRange([1, 2], [5.0, 5.0]))

    @staticmethod
    def two_iterations(first: dict, second: dict) -> list[ProtocolEvent]:
        return [
            ProtocolEvent(2, node, "approx-iterate", {"estimate": value})
            for node, value in first.items()
        ] + [
            ProtocolEvent(3, node, "approx-output", {"output": value})
            for node, value in second.items()
        ]

    def test_accepts_halving_every_iteration(self):
        events = self.two_iterations({1: 4.0, 2: 8.0}, {1: 5.0, 2: 7.0})
        assert held(events, HalfRange([1, 2], [0.0, 10.0]))

    def test_rejects_a_second_iteration_that_halves_too_little(self):
        # The outputs span 2.5 <= 5.0, half the input range, but only
        # 2.5 > 2.0 against the first iteration's range 4.0.
        events = self.two_iterations({1: 4.0, 2: 8.0}, {1: 5.0, 2: 7.5})
        message = fold(events, HalfRange([1, 2], [0.0, 10.0]))["half-range"]
        assert message == (
            "iteration 2 range 2.5 exceeds 2.0 (iteration 1 range 4.0)"
        )


class TestChainPrefix:
    def test_identical_chains_pass(self):
        chain = [(1, 9, "a"), (2, 8, "b")]
        events = chain_events({1: list(chain), 2: list(chain)})
        assert held(events, ChainPrefix())

    def test_prefix_passes(self):
        long = [(1, 9, "a"), (2, 8, "b"), (3, 9, "c")]
        assert held(chain_events({1: long, 2: long[:2]}), ChainPrefix())

    def test_divergence_fails(self):
        a = [(1, 9, "a"), (2, 8, "b")]
        b = [(1, 9, "a"), (2, 8, "X")]
        message = fold(chain_events({1: a, 2: b}), ChainPrefix())
        assert "for machine round 2" in message["chain-prefix"]

    def test_joiner_suffix_passes(self):
        veteran = [(1, 9, "a"), (2, 8, "b"), (3, 9, "c")]
        joiner = [(2, 8, "b"), (3, 9, "c")]
        events = chain_events({1: veteran, 2: joiner})
        assert held(events, ChainPrefix())

    def test_empty_chains_pass(self):
        assert held(chain_events({}), ChainPrefix())
        assert held(chain_events({1: [], 2: []}), ChainPrefix())
