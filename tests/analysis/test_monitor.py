"""Online invariant monitors, attached to an event bus."""

import pytest

from repro.analysis.monitor import (
    AgreementMonitor,
    BoundMonitor,
    RelayMonitor,
)
from repro.core.approx_agreement import IteratedApproximateAgreement
from repro.core.consensus import EarlyConsensus
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.errors import PropertyViolation
from repro.obs import EventBus, ProtocolEvent
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


def publish(bus, round_no, node, event, detail):
    bus.publish(ProtocolEvent(round_no, node, event, detail))


class TestAgreementMonitor:
    def test_silent_on_agreement(self):
        bus = EventBus()
        monitor = AgreementMonitor().attach(bus)
        publish(bus, 3, 1, "decide", {"value": 7})
        publish(bus, 3, 2, "decide", {"value": 7})
        assert monitor.decisions == {1: 7, 2: 7}

    def test_raises_on_conflict_with_round_info(self):
        bus = EventBus()
        AgreementMonitor().attach(bus)
        publish(bus, 3, 1, "decide", {"value": 7})
        with pytest.raises(PropertyViolation, match="round 5"):
            publish(bus, 5, 2, "decide", {"value": 8})

    def test_scoped_to_nodes(self):
        bus = EventBus()
        AgreementMonitor(nodes={1, 2}).attach(bus)
        publish(bus, 3, 1, "decide", {"value": 7})
        publish(bus, 4, 99, "decide", {"value": 0})  # out of scope: fine

    def test_live_consensus_run_is_clean(self):
        rng = make_rng(0)
        ids = sparse_ids(4, rng)
        net = SyncNetwork(seed=0)
        AgreementMonitor(event="consensus-decide").attach(net.bus)
        for index, node_id in enumerate(ids):
            net.add_correct(node_id, EarlyConsensus(index % 2))
        net.run(40)  # must not raise


class TestRelayMonitor:
    def test_raises_on_late_acceptance(self):
        bus = EventBus()
        RelayMonitor().attach(bus)
        publish(bus, 3, 1, "accept", {"tag": ("m", 9)})
        publish(bus, 4, 2, "accept", {"tag": ("m", 9)})  # within window
        with pytest.raises(PropertyViolation, match="relay broken"):
            publish(bus, 6, 3, "accept", {"tag": ("m", 9)})

    def test_tags_independent(self):
        bus = EventBus()
        RelayMonitor().attach(bus)
        publish(bus, 3, 1, "accept", {"tag": "a"})
        publish(bus, 9, 2, "accept", {"tag": "b"})  # different tag: fine

    def test_live_reliable_broadcast_is_clean(self):
        rng = make_rng(1)
        ids = sparse_ids(5, rng)
        sender = ids[0]
        net = SyncNetwork(seed=1)
        RelayMonitor().attach(net.bus)
        for node_id in ids:
            net.add_correct(
                node_id,
                ReliableBroadcast(
                    sender, "m" if node_id == sender else None
                ),
            )
        net.run(8, until_all_halted=False)


class TestBoundMonitor:
    def test_raises_outside_interval(self):
        bus = EventBus()
        BoundMonitor("approx-iterate", "estimate", 0.0, 10.0).attach(bus)
        publish(bus, 2, 1, "approx-iterate", {"estimate": 5.0})
        with pytest.raises(PropertyViolation, match="outside"):
            publish(bus, 3, 1, "approx-iterate", {"estimate": 11.0})

    def test_live_approx_run_respects_lemma_aawithin(self):
        inputs = [2.0, 4.0, 6.0, 8.0, 3.0]
        rng = make_rng(2)
        ids = sparse_ids(5, rng)
        net = SyncNetwork(seed=2)
        BoundMonitor(
            "approx-iterate", "estimate", min(inputs), max(inputs)
        ).attach(net.bus)
        for index, node_id in enumerate(ids):
            net.add_correct(
                node_id,
                IteratedApproximateAgreement(inputs[index], iterations=5),
            )
        net.run(10)

    def test_missing_field_ignored(self):
        bus = EventBus()
        BoundMonitor("e", "x", 0, 1).attach(bus)
        publish(bus, 1, 1, "e", {})  # no field: no raise
