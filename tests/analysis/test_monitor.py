"""Verdicts attached to a live event bus, and fed hand-made events.

These cases once pinned the online monitors; their properties are now
verdicts of :mod:`repro.analysis.verdicts`, which a
:class:`~repro.analysis.verdicts.Judgement` feeds from a bus.
"""

from repro.adversary import ValueInjectorStrategy
from repro.analysis.verdicts import (
    Agreement,
    BroadcastProperties,
    HalfRange,
    Judgement,
)
from repro.core.approx_agreement import ApproximateAgreement
from repro.core.consensus import EarlyConsensus
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.obs import EventBus, ProtocolEvent
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


def judged(*verdicts) -> tuple[EventBus, Judgement]:
    bus = EventBus()
    return bus, Judgement(verdicts).attach(bus)


def publish(bus, round_no, node, event, detail):
    bus.publish(ProtocolEvent(round_no, node, event, detail))


class TestAgreementMonitor:
    def test_silent_on_agreement(self):
        bus, judgement = judged(Agreement())
        publish(bus, 3, 1, "decide", {"value": 7})
        publish(bus, 3, 2, "decide", {"value": 7})
        assert judgement.verdicts() == {"agreement": None}

    def test_raises_on_conflict_with_round_info(self):
        bus, judgement = judged(Agreement())
        publish(bus, 3, 1, "decide", {"value": 7})
        publish(bus, 5, 2, "decide", {"value": 8})
        assert judgement.verdicts()["agreement"] == (
            "agreement broken in round 5: node 2 decided 8 but node 1 "
            "decided 7"
        )

    def test_scoped_to_nodes(self):
        bus, judgement = judged(Agreement([1, 2]))
        publish(bus, 3, 1, "decide", {"value": 7})
        publish(bus, 4, 99, "decide", {"value": 0})  # out of scope: fine
        publish(bus, 4, 2, "decide", {"value": 7})
        assert judgement.verdicts() == {"agreement": None}

    def test_live_consensus_run_is_clean(self):
        ids = sparse_ids(4, make_rng(0))
        net = SyncNetwork(seed=0)
        judgement = Judgement([Agreement(ids)]).attach(net.bus)
        for index, node_id in enumerate(ids):
            net.add_correct(node_id, EarlyConsensus(index % 2))
        net.run(40)
        assert judgement.verdicts() == {"agreement": None}


def accept(bus, round_no, node, tag):
    publish(bus, round_no, node, "accept", {"tag": tag})


class TestRelayMonitor:
    SENDER = 9

    def delivered(self, nodes):
        """A bus whose correct *nodes* all got the sender's "m" in
        round 3."""
        bus, judgement = judged(BroadcastProperties(nodes, self.SENDER, "m"))
        publish(bus, 1, self.SENDER, "rb-sent", {"message": "m"})
        for node in nodes:
            accept(bus, 3, node, ("m", self.SENDER))
        return bus, judgement

    def test_raises_on_late_acceptance(self):
        bus, judgement = self.delivered([1, 2, 3])
        accept(bus, 3, 1, ("x", 5))
        accept(bus, 4, 2, ("x", 5))  # within one round
        accept(bus, 6, 3, ("x", 5))
        assert judgement.verdicts()["reliable-broadcast"] == (
            "relay: ('x', 5) acceptance spread over rounds 3..6"
        )

    def test_tags_independent(self):
        bus, judgement = self.delivered([1, 2])
        accept(bus, 7, 1, ("a", 5))
        accept(bus, 8, 2, ("a", 5))
        accept(bus, 9, 1, ("b", 5))  # a different tag, later: fine
        accept(bus, 9, 2, ("b", 5))
        assert judgement.verdicts() == {"reliable-broadcast": None}

    def test_live_reliable_broadcast_is_clean(self):
        ids = sparse_ids(5, make_rng(1))
        sender = ids[0]
        net = SyncNetwork(seed=1)
        judgement = Judgement([BroadcastProperties(ids, sender, "m")])
        judgement.attach(net.bus)
        for node_id in ids:
            net.add_correct(
                node_id,
                ReliableBroadcast(sender, "m" if node_id == sender else None),
            )
        net.run(8, until_all_halted=False)
        assert judgement.verdicts() == {"reliable-broadcast": None}


class TestBoundMonitor:
    """Lemma aaWithin: every correct output inside the input range."""

    def test_raises_outside_interval(self):
        bus, judgement = judged(HalfRange([1, 2], [0.0, 10.0]))
        publish(bus, 2, 1, "approx-output", {"output": 5.0})
        publish(bus, 2, 2, "approx-output", {"output": 11.0})
        assert "node 2 output 11.0 outside input range [0.0, 10.0]" in (
            judgement.verdicts()["half-range"]
        )

    def test_live_approx_run_respects_lemma_aawithin(self):
        inputs = [2.0, 4.0, 6.0, 8.0, 3.0]
        ids = sparse_ids(7, make_rng(2))
        correct, byzantine = ids[:5], ids[5:]
        net = SyncNetwork(seed=2, rushing=True)
        judgement = Judgement([HalfRange(correct, inputs)]).attach(net.bus)
        for index, node_id in enumerate(correct):
            net.add_correct(node_id, ApproximateAgreement(inputs[index]))
        for node_id in byzantine:
            net.add_byzantine(
                node_id, ValueInjectorStrategy(low=-1e9, high=1e9)
            )
        net.run(10)
        assert judgement.verdicts() == {"half-range": None}

    def test_missing_field_ignored(self):
        # An output-less line records no output: the node is named.
        bus, judgement = judged(HalfRange([1], [0.0, 1.0]))
        publish(bus, 2, 1, "approx-output", {})
        assert judgement.verdicts() == {
            "half-range": "node 1 has no approx-output"
        }
