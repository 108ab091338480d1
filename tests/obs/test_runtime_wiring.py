"""The runtimes publish onto the bus, and pay nothing when detached."""

from __future__ import annotations

import io
import json
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
        sends = []
        bus = EventBus()
        bus.subscribe(lambda e: collected.update([e.topic]))
        bus.subscribe(lambda e: sends.extend(e.expanded()), "send")
        net = build_network(bus=bus)
        net.run(40)
        metrics = net.metrics
        assert collected["run-start"] == 1
        assert collected["round-start"] == metrics.rounds
        assert collected["round-end"] == metrics.rounds
        # One "send" event per row: a broadcast_many row carries k
        # logical sends, which its per-send view lists.
        assert len(sends) == metrics.sends_total
        assert collected["send"] < len(sends)
        assert collected["protocol"] == len(net.trace)
        # deliveries_total counts messages; "deliver" counts inboxes
        assert 0 < collected["deliver"] <= metrics.deliveries_total

    def test_a_send_subscriber_sees_every_send_whoever_else_listens(self):
        # One "send" event per row, whoever else is subscribed: with the
        # default Metrics attached or detached, and with byte accounting
        # on, a send subscriber gets the same rows, and their per-send
        # view is every logical send, one per JSONL "send" line.
        from repro.adversary import EquivocatorStrategy

        def run(detach_metrics=False, **kwargs):
            net = build_network(**kwargs)
            net.add_byzantine(50, EquivocatorStrategy(EarlyConsensus(1)))
            if detach_metrics:
                net.metrics.detach(net.bus)
            rows = []
            net.bus.subscribe(rows.append, "send")
            stream = io.StringIO()
            with net.bus.to_jsonl(stream):
                net.run(40)
            docs = map(json.loads, stream.getvalue().splitlines())
            lines = sum(doc["topic"] == "send" for doc in docs)
            sends = sum(len(e.expanded()) for e in rows)
            shape = [
                (e.round, e.sender, e.kind, e.payloads, e.dests, e.staged)
                for e in rows
            ]
            return (shape, sends, lines), net.metrics

        seen, metrics = run()
        rows, sends, lines = seen
        assert sends == lines == metrics.sends_total > 0
        # Two stories to five nodes: every fan-out is one row naming its
        # recipients, each a logical send.
        fanouts = [dests for *_, dests, _ in rows if dests and len(dests) > 1]
        assert fanouts
        assert sum(map(len, fanouts)) % len(NODE_IDS + (50,)) == 0
        assert run(detach_metrics=True)[0] == seen
        costed, costed_metrics = run(measure_bytes=True)
        assert costed == seen
        assert costed_metrics.bytes_total > 0
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
