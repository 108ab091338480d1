"""Engine-level tests for scheduled joins and forced leaves."""

from repro.sim.inbox import Inbox
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.node import NodeApi, Protocol


class Recorder(Protocol):
    def __init__(self):
        super().__init__()
        self.heard_by_round = {}

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        self.heard_by_round[api.round] = sorted(inbox.senders())
        api.broadcast("beat", api.round)


class TestScheduledJoins:
    def test_joiner_activates_at_scheduled_round(self):
        schedule = MembershipSchedule()
        joiner = Recorder()
        schedule.join(3, 99, lambda: joiner)
        net = SyncNetwork(membership=schedule)
        net.add_correct(1, Recorder())
        net.run(5, until_all_halted=False)
        # First active round is 3 — and a broadcast reaches every node
        # alive at *delivery* time, so the joiner already receives the
        # round-2 broadcasts in its first inbox.
        assert min(joiner.heard_by_round) == 3
        assert joiner.heard_by_round[3] == [1]

    def test_joiner_receives_previous_round_broadcasts(self):
        schedule = MembershipSchedule()
        joiner = Recorder()
        schedule.join(4, 99, lambda: joiner)
        net = SyncNetwork(membership=schedule)
        net.add_correct(1, Recorder())
        net.run(6, until_all_halted=False)
        # Round-4 inbox holds the round-3 broadcasts.  They were queued
        # before the joiner existed, but broadcast recipients are
        # resolved at delivery time: a join at round r+1 must see the
        # round-r broadcasts (the g <= n_v invariant depends on it).
        assert joiner.heard_by_round[4] == [1]
        assert 1 in joiner.heard_by_round[5]

    def test_joiner_misses_deliveries_before_its_join_round(self):
        schedule = MembershipSchedule()
        joiner = Recorder()
        schedule.join(4, 99, lambda: joiner)
        net = SyncNetwork(membership=schedule)
        net.add_correct(1, Recorder())
        net.run(6, until_all_halted=False)
        # Rounds 1-3 were delivered before the join: the joiner has no
        # inbox for them at all.
        assert min(joiner.heard_by_round) == 4

    def test_joiner_messages_reach_existing_nodes(self):
        schedule = MembershipSchedule()
        schedule.join(3, 99, Recorder)
        net = SyncNetwork(membership=schedule)
        veteran = Recorder()
        net.add_correct(1, veteran)
        net.run(5, until_all_halted=False)
        assert 99 in veteran.heard_by_round[4]

    def test_byzantine_join(self):
        class Byz:
            def on_round(self, view):
                from repro.sim.message import Send

                return [
                    Send("evil", (None,), dests=(dest,))
                    for dest in view.all_nodes
                ]

        schedule = MembershipSchedule()
        schedule.join(2, 66, Byz, byzantine=True)
        net = SyncNetwork(membership=schedule)
        veteran = Recorder()
        net.add_correct(1, veteran)
        net.run(4, until_all_halted=False)
        assert 66 in net.byzantine_ids
        assert 66 in veteran.heard_by_round[3]


class TestForcedLeaves:
    def test_scheduled_leave_silences_node(self):
        schedule = MembershipSchedule()
        schedule.leave(3, 2)
        net = SyncNetwork(membership=schedule)
        a, b = Recorder(), Recorder()
        net.add_correct(1, a)
        net.add_correct(2, b)
        net.run(5, until_all_halted=False)
        # b's round-2 broadcast arrives at round 3; b is removed at round
        # 3 so nothing from b arrives at round 4 or later.
        assert 2 in a.heard_by_round[3]
        assert 2 not in a.heard_by_round[4]
        assert 2 not in a.heard_by_round[5]

    def test_left_node_receives_nothing(self):
        schedule = MembershipSchedule()
        schedule.leave(2, 2)
        net = SyncNetwork(membership=schedule)
        a, b = Recorder(), Recorder()
        net.add_correct(1, a)
        net.add_correct(2, b)
        net.run(4, until_all_halted=False)
        assert max(b.heard_by_round, default=1) == 1
