"""Monitors and timelines as event-bus consumers.

The analysis layer predates the event plane; these tests pin the new
attachment paths — a monitor subscribing to a bus directly (so it works
on any runtime) and a timeline rendered from a mixed-topic stream.
"""

from __future__ import annotations

import pytest

from repro.analysis.monitor import AgreementMonitor
from repro.analysis.timeline import render_timeline
from repro.errors import PropertyViolation
from repro.obs import (
    EventBus,
    MessageSent,
    ProtocolEvent,
    RoundStarted,
)
from repro.sim.network import SyncNetwork
from repro.sim.node import Protocol


class Decider(Protocol):
    def __init__(self, value):
        super().__init__()
        self.value = value

    def on_round(self, api, inbox):
        self.decide(api, self.value)


class TestMonitorOnBus:
    def test_attach_to_bus_raises_inside_offending_round(self):
        net = SyncNetwork(seed=0)
        AgreementMonitor().attach(net.bus)
        net.add_correct(1, Decider("a"))
        net.add_correct(2, Decider("b"))
        with pytest.raises(PropertyViolation):
            net.run(3)
        assert net.round == 1  # raised in the round it happened

    def test_attach_to_trace_still_works(self):
        net = SyncNetwork(seed=0)
        monitor = AgreementMonitor().attach(net.trace)
        net.add_correct(1, Decider("a"))
        net.add_correct(2, Decider("a"))
        net.run(3)
        assert monitor.decisions == {1: "a", 2: "a"}

    def test_bus_monitor_ignores_non_protocol_topics(self):
        bus = EventBus()
        monitor = AgreementMonitor().attach(bus)
        bus.publish(RoundStarted(1))
        bus.publish(ProtocolEvent(1, 5, "decide", {"value": 1}))
        assert monitor.decisions == {5: 1}


class TestTimelineOnMixedStream:
    def test_non_protocol_events_skipped(self):
        stream = [
            RoundStarted(1),
            MessageSent(1, 5, "echo", (None,)),
            ProtocolEvent(1, 5, "decide", {"value": 1}),
            ProtocolEvent(2, 6, "accept", {"tag": "t"}),
        ]
        art = render_timeline(stream, nodes=[5, 6])
        assert "decide=1" in art
        assert "accept" in art

    def test_bus_collected_stream_renders_like_trace(self):
        bus = EventBus()
        stream = []
        bus.subscribe(stream.append)  # every topic
        net = SyncNetwork(seed=0, bus=bus)
        net.add_correct(1, Decider("x"))
        net.add_correct(2, Decider("x"))
        net.run(3)
        assert render_timeline(stream, nodes=[1, 2]) == render_timeline(
            net.trace, nodes=[1, 2]
        )
