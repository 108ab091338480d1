"""Reliable broadcast (Algorithm 1): correctness, unforgeability, relay."""

import pytest

from repro.adversary import (
    EchoForgerStrategy,
    MembershipLiarStrategy,
    SilentStrategy,
)
from repro.adversary.base import ByzantineStrategy
from repro.analysis.verdicts import BroadcastProperties
from repro.core.reliable_broadcast import ReliableBroadcast

from tests.conftest import assert_holds, predict_ids, run_quick


def rb_run(
    correct=7,
    byzantine=2,
    seed=0,
    strategy_factory=None,
    sender_is_byzantine=False,
    message="m",
    rounds=8,
    rushing=False,
):
    correct_ids, byz_ids = predict_ids(seed, correct, byzantine)
    sender = byz_ids[0] if sender_is_byzantine else correct_ids[0]
    result = run_quick(
        correct=correct,
        byzantine=byzantine,
        seed=seed,
        protocol_factory=lambda nid, i: ReliableBroadcast(
            sender, message if nid == sender else None
        ),
        strategy_factory=strategy_factory
        or (lambda nid, i: SilentStrategy()),
        max_rounds=rounds,
        until_all_halted=False,
        rushing=rushing,
    )
    return result, sender


class TestCorrectness:
    def test_all_accept_by_round_three(self):
        result, sender = rb_run()
        for node in result.correct_ids:
            protocol = result.protocols[node]
            assert protocol.acceptance_round("m") == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_correctness_across_seeds(self, seed):
        result, sender = rb_run(seed=seed)
        assert_holds(
            result, BroadcastProperties(result.correct_ids, sender, "m")
        )

    def test_works_at_minimum_population(self):
        result, sender = rb_run(correct=3, byzantine=0)
        assert all(
            p.has_accepted("m") for p in result.protocols.values()
        )

    def test_works_at_exact_resiliency_bound(self):
        # n = 3f + 1 is the tightest legal configuration.
        result, sender = rb_run(correct=9, byzantine=4, seed=2)
        assert_holds(
            result, BroadcastProperties(result.correct_ids, sender, "m")
        )


class TestUnforgeability:
    @pytest.mark.parametrize("seed", range(5))
    def test_forged_echoes_never_accepted(self, seed):
        # Byzantine nodes echo a message the correct sender never sent.
        correct_ids, _ = predict_ids(seed, 7, 2)
        victim = correct_ids[0]

        result, sender = rb_run(
            seed=seed,
            strategy_factory=lambda nid, i: EchoForgerStrategy(
                forged_payload=("forged-m", victim)
            ),
            rushing=True,
        )
        for node in result.correct_ids:
            protocol = result.protocols[node]
            assert ("forged-m", victim) not in protocol.accepted

    def test_byzantine_sender_cannot_split_acceptance(self):
        # A Byzantine sender sends different payloads to different halves;
        # neither may be accepted by only *some* correct nodes (relay).
        class SplitSender(ByzantineStrategy):
            def on_round(self, view):
                if view.round != 1:
                    return ()
                ordered = sorted(view.correct_nodes)
                half = len(ordered) // 2
                return [
                    *(self.to(d, "msg", "left") for d in ordered[:half]),
                    *(self.to(d, "msg", "right") for d in ordered[half:]),
                ]

        correct_ids, byz_ids = predict_ids(3, 7, 2)
        sender = byz_ids[0]
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=3,
            protocol_factory=lambda nid, i: ReliableBroadcast(sender, None),
            strategy_factory=lambda nid, i: SplitSender(),
            max_rounds=8,
            until_all_halted=False,
        )
        for payload in ("left", "right"):
            acceptors = [
                n
                for n in result.correct_ids
                if (payload, sender) in result.protocols[n].accepted
            ]
            assert acceptors == [] or len(acceptors) == len(
                result.correct_ids
            )


class TestRelay:
    @pytest.mark.parametrize("seed", range(5))
    def test_acceptance_rounds_within_one(self, seed):
        # A Byzantine sender reveals the message to a single correct node;
        # echo quorums then spread it (or nothing is ever accepted).
        class WhisperSender(ByzantineStrategy):
            def on_round(self, view):
                if view.round == 1:
                    target = min(view.correct_nodes)
                    return [self.to(target, "msg", "w")]
                return ()

        correct_ids, byz_ids = predict_ids(seed, 7, 2)
        sender = byz_ids[0]
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            protocol_factory=lambda nid, i: ReliableBroadcast(sender, None),
            strategy_factory=lambda nid, i: WhisperSender(),
            max_rounds=10,
            until_all_halted=False,
        )
        rounds = [
            result.protocols[n].accepted.get(("w", sender))
            for n in result.correct_ids
        ]
        accepted = [r for r in rounds if r is not None]
        assert accepted == [] or (
            len(accepted) == len(rounds)
            and max(accepted) - min(accepted) <= 1
        )


class TestAdversaryMatrix:
    @pytest.mark.parametrize(
        "strategy_builder",
        [
            lambda: SilentStrategy(),
            lambda: EchoForgerStrategy(),
            lambda: MembershipLiarStrategy(),
        ],
        ids=["silent", "echo-forger", "membership-liar"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_all_properties_hold(self, strategy_builder, seed):
        result, sender = rb_run(
            seed=seed,
            strategy_factory=lambda nid, i: strategy_builder(),
            rushing=True,
        )
        assert_holds(
            result, BroadcastProperties(result.correct_ids, sender, "m")
        )


class TestProtocolShape:
    def test_never_terminates(self):
        result, _ = rb_run(rounds=6)
        assert all(not p.halted for p in result.protocols.values())

    def test_has_accepted_api(self):
        result, sender = rb_run()
        protocol = result.protocols[result.correct_ids[1]]
        assert protocol.has_accepted()
        assert protocol.has_accepted("m")
        assert not protocol.has_accepted("other")
        assert protocol.acceptance_round("other") is None
