"""The runtimes publish onto the bus, and pay nothing when detached."""

from __future__ import annotations

from collections import Counter

from repro.asyncsim.engine import AsyncEngine, AsyncNode
from repro.asyncsim.schedulers import UniformScheduler
from repro.core.consensus import EarlyConsensus
from repro.obs import EventBus
from repro.sim.network import SyncNetwork

NODE_IDS = (11, 23, 37, 41)


def build_network(**kwargs):
    net = SyncNetwork(seed=1, **kwargs)
    for index, node_id in enumerate(NODE_IDS):
        net.add_correct(node_id, EarlyConsensus(index % 2))
    return net


class TestSimWiring:
    def test_event_counts_match_metrics(self):
        collected = Counter()
        batched_sends = []
        bus = EventBus()
        bus.subscribe(lambda e: collected.update([e.topic]))
        bus.subscribe(
            lambda e: batched_sends.append(len(e.payloads)), "send-batch"
        )
        net = build_network(bus=bus)
        net.run(40)
        metrics = net.metrics
        assert collected["run-start"] == 1
        assert collected["round-start"] == metrics.rounds
        assert collected["round-end"] == metrics.rounds
        # A batched fan-out is one "send-batch" event carrying k logical
        # sends; scalar sends still arrive one "send" event each.
        assert collected["send"] + sum(batched_sends) == metrics.sends_total
        assert collected["send-batch"] == len(batched_sends)
        assert collected["protocol"] == len(net.trace)
        # deliveries_total counts messages; "deliver" counts inboxes
        assert 0 < collected["deliver"] <= metrics.deliveries_total

    def test_fanout_is_one_multicast_event_or_per_send_fallback(self):
        from repro.adversary import EquivocatorStrategy

        def run(detach_metrics=False, **kwargs):
            topics = Counter()
            net = build_network(**kwargs)
            net.add_byzantine(50, EquivocatorStrategy(EarlyConsensus(1)))
            if detach_metrics:
                net.metrics.detach(net.bus)
            net.bus.subscribe(lambda e: topics.update([e.topic]), "send")
            if not detach_metrics:
                net.bus.subscribe(
                    lambda e: topics.update([e.topic] * len(e.dests)),
                    "send-multicast",
                )
                net.bus.subscribe(
                    lambda e: topics.update([e.topic] * len(e.payloads)),
                    "send-batch",
                )
            net.run(40)
            return topics, net.metrics

        bulk, metrics = run()
        # Two stories to five nodes: every fan-out arrives as one event
        # whose recipients are counted as logical sends.
        assert bulk["send-multicast"] > 0
        assert bulk["send-multicast"] % len(NODE_IDS + (50,)) == 0
        # Nobody listening for the bulk form, or byte accounting (which
        # is per frame): the engine emits the equivalent scalar events.
        scalar, _ = run(detach_metrics=True)
        assert scalar["send-multicast"] == 0
        assert scalar["send"] == sum(bulk.values()) == metrics.sends_total
        costed, costed_metrics = run(measure_bytes=True)
        assert costed["send-multicast"] == 0
        assert costed["send"] == scalar["send"]
        assert costed_metrics.bytes_total > 0
        assert costed_metrics.sends_total == metrics.sends_total
        assert costed_metrics.staged_total == metrics.staged_total

    def test_shared_bus_feeds_default_subscribers_too(self):
        # metrics/trace attach to the *given* bus, not a private one
        bus = EventBus()
        net = build_network(bus=bus)
        assert net.bus is bus
        net.run(40)
        assert net.metrics.sends_total > 0
        assert len(net.trace) > 0

    def test_deliver_events_alias_shared_broadcast_tuple(self):
        batches = []
        bus = EventBus()
        bus.subscribe(lambda e: batches.append(e.messages), "deliver")
        net = build_network(bus=bus)
        net.run(40)
        # all-broadcast rounds: every recipient's event carries the
        # round's *same* tuple object (the zero-copy contract)
        identical = [
            batch
            for batch in batches
            if sum(1 for other in batches if other is batch) > 1
        ]
        assert identical, "expected shared per-round delivery tuples"

    def test_detached_bus_yields_none_sinks(self):
        net = build_network()
        net.metrics.detach(net.bus)
        net.trace.detach(net.bus)
        net.run(40)
        assert net._emit_send is None
        assert net._emit_deliver is None
        assert net._emit_round_start is None
        assert net._protocol_sink is None
        assert net.metrics.sends_total == 0
        assert len(net.trace) == 0

    def test_detached_run_behaves_identically(self):
        observed = build_network()
        observed.run(40)
        dark = build_network()
        dark.metrics.detach(dark.bus)
        dark.trace.detach(dark.bus)
        dark.run(40)
        assert dark.outputs() == observed.outputs()
        assert dark.round == observed.round

    def test_mid_run_subscription_takes_effect(self):
        # sinks are cached against bus.version; a later subscribe must
        # be picked up on the next round
        net = build_network()
        net.step()
        rounds = []
        net.bus.subscribe(lambda e: rounds.append(e.round), "round-start")
        net.step()
        net.step()
        assert rounds == [2, 3]


class Pinger(AsyncNode):
    def on_start(self, ctx):
        ctx.broadcast("ping", ctx.node_id)

    def on_message(self, ctx, message):
        if not self.decided:
            self.decide(ctx, message.payload)


class TestAsyncsimWiring:
    def run_engine(self, bus=None):
        engine = AsyncEngine(UniformScheduler(1.0), bus=bus)
        for node_id in (1, 2, 3):
            engine.add_node(node_id, Pinger())
        engine.run()
        return engine

    def test_send_deliver_decide_events(self):
        collected = Counter()
        times = []
        bus = EventBus()
        bus.subscribe(lambda e: collected.update([e.topic]))
        bus.subscribe(lambda e: times.append(e.time), "deliver")
        engine = self.run_engine(bus=bus)
        assert collected["run-start"] == 1
        assert collected["send"] == 9  # 3 nodes broadcast to 3
        assert collected["deliver"] == engine.delivered
        assert collected["protocol"] == 3  # one decide per node
        # round-less runtime: simulated time rides the events
        assert all(t is not None for t in times)

    def test_detached_engine_runs_clean(self):
        engine = self.run_engine()
        assert engine.delivered == 9
        assert len(engine.outputs()) == 3
