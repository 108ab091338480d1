"""The boundary invariant of the shared plane (DESIGN.md §4).

On the lock-step all-correct path a node's private state and private
sends are O(1) in n: what the round's shared plane derived once is
*held*, and *handed to the engine*, as that one object.  These tests
pin the two boundaries by object identity — exact, and independent of
interpreter version or timing:

* the send boundary — every node's ``echo`` batch of a round is the
  same tuple, and the engine's identity aliases live for one round;
* the state boundary — ``OutcomeGossip.decision_votes`` adopts the
  round-shared announcer frozenset and replaces it copy-on-write.
"""

import pytest

from repro.adversary.base import ProtocolWrappingStrategy
from repro.core.committee import sample_committee
from repro.core.implicit_agreement import (
    _UNSET,
    KIND_DECISION,
    CommitteeConsensus,
    OutcomeGossip,
)
from repro.obs.bus import EventBus
from repro.scenario import RunSpec, run_spec
from repro.sim.columnar import ColumnarPlane
from repro.sim.inbox import Inbox
from repro.sim.message import Message
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


class TestSendBoundary:
    def test_a_rounds_echo_batches_are_one_tuple(self):
        bus = EventBus()
        batches = []
        bus.subscribe(batches.append, "send-batch")
        result = run_spec(
            RunSpec(protocol="consensus", n=60, f=0, seed=3), bus=bus
        )
        by_round = {}
        for event in batches:
            if event.kind == "echo":
                by_round.setdefault(event.round, []).append(event.payloads)
        # Round 2 echoes the announcers; later rounds re-echo from the
        # shared decision.  The events keep every tuple alive, so equal
        # ids mean one object.
        assert len(by_round) >= 2
        for round_no, payloads in by_round.items():
            assert len(payloads) == 60, round_no
            assert all(type(p) is tuple for p in payloads)
            assert len({id(p) for p in payloads}) == 1, round_no
        # At most the last staging round's tuples are still aliased; at
        # the parent of this invariant it was one per node per round.
        assert len(result.network._plane._batch_aliases) <= 1

    def test_identity_aliases_live_for_one_round(self):
        plane = ColumnarPlane()
        shared = (1, 2, 3)
        batch = plane.intern_batch("echo", shared, None)
        assert plane.intern_batch("echo", shared, None) is batch
        assert len(plane._batch_aliases) == 1
        plane.new_round()
        assert plane._batch_aliases == {}
        # The canonical batch survives by value; only the alias is gone.
        assert plane.intern_batch("echo", (1, 2, 3), None) is batch


class TestStateBoundaryOnRuns:
    @pytest.mark.parametrize("protocol", ["consensus", "parallel"])
    def test_adopters_share_one_announcer_set(self, protocol):
        result = run_spec(
            RunSpec(protocol=protocol, variant="sampled", n=120, f=0, seed=5)
        )
        assert result.agreed
        held = [
            node._gossip.decision_votes
            for node in result.protocols.values()
            if node._gossip.decision_votes
        ]
        committee = next(iter(result.protocols.values())).committee
        # Every non-member adopted through the fold.
        assert len(held) >= 120 - len(committee) > 0
        values = {value for votes in held for value in votes}
        assert len(values) == 1
        (value,) = values
        sets = [votes[value] for votes in held]
        assert type(sets[0]) is frozenset
        assert all(senders is sets[0] for senders in sets)
        assert sets[0] <= committee

    def test_staggered_announcements_adopt_as_before(self):
        # Three in-protocol Byzantine committee members announce value
        # 0 at round 4, four rounds before the members decide: a
        # sub-quorum first round (3 of 16 < 1/3) that every correct node
        # folds, then the members' own announcements complete it for the
        # non-members.  Round, value and announcer sets are the numbers
        # the private-set fold produced at the parent.
        net, correct, committee, byzantine = _staggered_network()
        net.run(60)
        early = committee & byzantine
        assert len(early) == 3
        decided = net.trace.of("outcome-ready")
        assert {e.round for e in decided if e.detail["announced"]} == {8}
        adoptions = net.trace.of("adopt-implicit")
        assert len(adoptions) == 23
        assert {e.round for e in adoptions} == {9}
        assert {e.detail["value"] for e in adoptions} == {0}
        members = [node for node in correct if node.is_member]
        watchers = [node for node in correct if not node.is_member]
        assert (len(members), len(watchers)) == (13, 23)
        # Members decided on their own: they still hold round 5's set.
        for node in members:
            assert node._gossip.decision_votes == {0: early}
        # Non-members replaced it with the union; the outsider's
        # announcement was never counted.
        for node in watchers:
            assert node._gossip.decision_votes == {0: committee}


class _EarlyAnnouncer(ProtocolWrappingStrategy):
    """Runs the real protocol, plus one premature ``decision``."""

    def transform(self, sends, view):
        if view.round == 4:
            sends.append(self.broadcast(KIND_DECISION, 0))
        return sends


def _staggered_network():
    seed, n = 1, 40
    rng = make_rng(seed)
    ids = sparse_ids(n, rng)

    def protocol():
        return CommitteeConsensus(0, sampling_seed=seed, committee_size=16)

    committee = sample_committee(ids, seed=seed, size=16)
    # Byzantine ids: three members and one outsider (whose announcement
    # must never be counted).
    members = sorted(committee)[:3]
    outsider = sorted(set(ids) - committee)[0]
    byzantine = frozenset(members + [outsider])
    net = SyncNetwork(seed=seed)
    correct = []
    for node_id in ids:
        if node_id in byzantine:
            net.add_byzantine(node_id, _EarlyAnnouncer(protocol()))
        else:
            correct.append(protocol())
            net.add_correct(node_id, correct[-1])
    return net, correct, committee, byzantine


COMMITTEE = frozenset(range(1, 13))  # 12 members: adoption at >= 4


def _decisions(*pairs):
    """One round's inbox: ``(sender, value)`` decision broadcasts."""
    return Inbox(Message(s, KIND_DECISION, v) for s, v in pairs)


class TestCopyOnWriteFold:
    def test_first_round_adopts_the_shared_set(self):
        inbox = _decisions((1, "v"), (2, "v"))
        a, b = OutcomeGossip(0), OutcomeGossip(0)
        assert a.watch_decisions(inbox, COMMITTEE) is _UNSET
        assert b.watch_decisions(inbox, COMMITTEE) is _UNSET
        assert a.decision_votes["v"] == {1, 2}
        assert a.decision_votes["v"] is b.decision_votes["v"]

    def test_new_announcer_replaces_and_never_mutates(self):
        first = _decisions((1, "v"), (2, "v"))
        second = _decisions((3, "v"), (4, "v"))
        a, b = OutcomeGossip(0), OutcomeGossip(0)
        a.watch_decisions(first, COMMITTEE)
        b.watch_decisions(first, COMMITTEE)
        shared = a.decision_votes["v"]
        assert a.watch_decisions(second, COMMITTEE) == "v"
        assert a.decision_votes["v"] == {1, 2, 3, 4}
        assert a.decision_votes["v"] is not shared
        # The other holder's alias is untouched.
        assert shared == {1, 2}
        assert b.decision_votes["v"] is shared

    def test_already_seen_announcers_allocate_nothing(self):
        first = _decisions((1, "v"), (2, "v"), (3, "v"))
        repeat = _decisions((2, "v"), (3, "v"))
        gossip = OutcomeGossip(0)
        gossip.watch_decisions(first, COMMITTEE)
        held = gossip.decision_votes["v"]
        assert gossip.watch_decisions(repeat, COMMITTEE) is _UNSET
        assert gossip.decision_votes["v"] is held

    def test_two_values_are_tracked_independently(self):
        first = _decisions((1, "v"), (2, "v"), (3, "w"))
        second = _decisions((4, "w"), (5, "v"), (6, "v"))
        gossip = OutcomeGossip(0)
        assert gossip.watch_decisions(first, COMMITTEE) is _UNSET
        assert gossip.watch_decisions(second, COMMITTEE) == "v"
        assert gossip.decision_votes == {"v": {1, 2, 5, 6}, "w": {3, 4}}

    def test_non_committee_announcers_are_never_counted(self):
        outsiders = _decisions(*((s, "v") for s in range(20, 30)))
        mixed = _decisions((1, "v"), (20, "v"), (21, "v"), (22, "v"))
        gossip = OutcomeGossip(0)
        assert gossip.watch_decisions(outsiders, COMMITTEE) is _UNSET
        assert gossip.decision_votes == {}
        assert gossip.watch_decisions(mixed, COMMITTEE) is _UNSET
        assert gossip.decision_votes == {"v": {1}}
