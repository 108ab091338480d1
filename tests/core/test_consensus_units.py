"""Unit-level tests for EarlyConsensus internals (phase dispatch, the
substitution counting, frozen-membership filtering)."""

from repro.core.consensus import (
    INIT_ROUNDS,
    KIND_INPUT,
    KIND_PREFER,
    KIND_STRONGPREFER,
    PHASE_LENGTH,
    EarlyConsensus,
)
from repro.sim.inbox import Inbox
from repro.sim.message import Message, Outbox
from repro.sim.node import NodeApi


def api_for(node_id=1, round_no=3):
    return NodeApi(
        node_id=node_id,
        round_no=round_no,
        known_contacts=frozenset(range(100)),
        outbox=Outbox(),
    )


def primed_consensus(membership=(1, 2, 3, 4), x=0):
    protocol = EarlyConsensus(x)
    protocol.membership = frozenset(membership)
    protocol.n_v = len(membership)
    return protocol


class TestPhaseGeometry:
    def test_phase_round_mapping(self):
        # rounds 1-2 are init; rounds 3..7 are phase 1 rounds 1..5
        for round_no, expected in [(3, 1), (4, 2), (5, 3), (6, 4), (7, 5),
                                   (8, 1), (12, 5), (13, 1)]:
            rel = (round_no - INIT_ROUNDS - 1) % PHASE_LENGTH + 1
            assert rel == expected, round_no

    def test_phase_counter_increments_at_phase_round_one(self):
        # keep the other members visibly live (split inputs, no quorum)
        # so neither the fast path nor the substitution path decides
        protocol = primed_consensus(membership=(1, 2, 3, 4), x=0)

        def inbox_for(round_no):
            phase_round = (round_no - INIT_ROUNDS - 1) % PHASE_LENGTH + 1
            if phase_round == 2:  # inputs land: 2 vs 2 split
                return Inbox(
                    [
                        Message(1, KIND_INPUT, 0),
                        Message(2, KIND_INPUT, 0),
                        Message(3, KIND_INPUT, 1),
                        Message(4, KIND_INPUT, 1),
                    ]
                )
            return Inbox()

        for round_no in range(3, 13):
            protocol.on_round(api_for(round_no=round_no),
                              inbox_for(round_no))
        assert protocol.phase == 2
        assert not protocol.halted

    def test_substitution_lets_a_lone_survivor_decide(self):
        # With every member silent for a whole phase (presumed
        # terminated), the substitution mirrors the survivor's own value
        # into a full quorum and it decides alone — the intended
        # straggler semantics.
        protocol = primed_consensus()
        for round_no in range(3, 8):
            protocol.on_round(api_for(round_no=round_no), Inbox())
        assert protocol.halted
        assert protocol.output == 0


class TestSubstitutionCounting:
    def test_fill_applies_only_to_non_live_members(self):
        protocol = primed_consensus(membership=(1, 2, 3, 4, 5, 6, 7), x=1)
        protocol._last_sent[KIND_PREFER] = 1
        # members 2 and 3 broadcast this phase's input; 4..7 did not
        protocol._phase_live = frozenset({1, 2, 3})
        inbox = Inbox(
            [Message(2, KIND_PREFER, 0), Message(3, KIND_PREFER, 0)]
        )
        value, count = protocol._best(inbox, KIND_PREFER)
        # fills: members 4..7 (non-live, silent) mirror our own 1;
        # member 1 (ourselves, live) is not filled
        assert (value, count) == (1, 4)

    def test_live_but_silent_members_not_filled(self):
        protocol = primed_consensus(membership=(1, 2, 3, 4), x=1)
        protocol._last_sent[KIND_STRONGPREFER] = 1
        protocol._phase_live = frozenset({1, 2, 3, 4})  # all alive
        inbox = Inbox([Message(2, KIND_STRONGPREFER, 0)])
        value, count = protocol._best(inbox, KIND_STRONGPREFER)
        assert (value, count) == (0, 1)  # no phantom votes at all

    def test_input_counting_fills_any_silent_member(self):
        protocol = primed_consensus(membership=(1, 2, 3, 4), x=1)
        protocol._last_sent[KIND_INPUT] = 1
        inbox = Inbox([Message(2, KIND_INPUT, 1)])
        value, count = protocol._best(inbox, KIND_INPUT)
        # 2 real? no: one real (node 2) + fills for 1, 3, 4
        assert (value, count) == (1, 4)

    def test_substitution_disabled(self):
        protocol = EarlyConsensus(1, substitution=False)
        protocol.membership = frozenset({1, 2, 3, 4})
        protocol.n_v = 4
        protocol._last_sent[KIND_INPUT] = 1
        inbox = Inbox([Message(2, KIND_INPUT, 1)])
        assert protocol._best(inbox, KIND_INPUT) == (1, 1)

    def test_no_fill_without_own_send(self):
        protocol = primed_consensus()
        inbox = Inbox([Message(2, KIND_PREFER, 0)])
        # we never sent a prefer: nothing to mirror
        assert protocol._best(inbox, KIND_PREFER) == (0, 1)

    def test_layered_counting_matches_flat_rebuild(self):
        # _best now layers the substitution phantoms over the inbox's
        # existing index instead of re-indexing everything; the counted
        # result must be exactly what a from-scratch inbox would give,
        # including the deterministic tie-break.
        protocol = primed_consensus(membership=(1, 2, 3, 4, 5, 6), x=1)
        protocol._last_sent[KIND_PREFER] = 1
        protocol._phase_live = frozenset({1, 2})
        real = [
            Message(2, KIND_PREFER, 0),
            Message(3, KIND_PREFER, 1),
            Message(4, KIND_PREFER, 0),
        ]
        inbox = Inbox(real)
        inbox.best_payload(KIND_PREFER)  # prime the base index first
        phantoms = [
            Message(node, KIND_PREFER, 1) for node in (5, 6)
        ]
        flat = Inbox(real + phantoms).best_payload(KIND_PREFER)
        assert protocol._best(inbox, KIND_PREFER) == flat == (1, 3)
        # and the base inbox is untouched by the overlay
        assert inbox.best_payload(KIND_PREFER) == (0, 2)


class TestFrozenMembership:
    def test_strangers_discarded(self):
        protocol = primed_consensus(membership=(1, 2, 3))
        inbox = Inbox(
            [
                Message(2, KIND_INPUT, 0),
                Message(99, KIND_INPUT, 0),  # not in the frozen view
            ]
        )
        restricted = protocol._restricted(inbox)
        assert restricted.senders() == {2}

    def test_all_members_means_same_inbox_object(self):
        # When no sender falls outside the frozen view, restriction is
        # the identity — the round's shared index stays shared.
        protocol = primed_consensus(membership=(1, 2, 3))
        inbox = Inbox([Message(2, KIND_INPUT, 0), Message(3, KIND_INPUT, 1)])
        assert protocol._restricted(inbox) is inbox

    def test_membership_frozen_from_round_two_inbox(self):
        protocol = EarlyConsensus(0)
        api = api_for(round_no=1)
        protocol.on_round(api, Inbox())
        api = api_for(round_no=2)
        protocol.on_round(
            api, Inbox([Message(5, "init"), Message(6, "junk")])
        )
        assert protocol.membership == frozenset({5, 6})
        assert protocol.n_v == 2
