"""Cross-runtime parity: one protocol, two runtimes, one event stream.

The tentpole invariant of the observability plane (DESIGN.md §4): the
semantic (``protocol``-topic) events of a run are a property of the
*protocol*, not of the runtime driving it.  The same seeded
``EarlyConsensus`` population is executed under the deterministic
:class:`SyncNetwork` and under TCP :class:`LockstepRunner` loopback
peers, and both event streams — collected off each runtime's bus by the
same subscriber — must coincide.

The net runtime's runners publish from per-node threads, so the global
interleaving across nodes is nondeterministic; the per-``(round, node)``
content is not.  Streams are therefore compared as sorted tuples, and
per-node event order is additionally pinned.
"""

from __future__ import annotations

import time

from repro.core.consensus import EarlyConsensus
from repro.net import LockstepRunner, NetPeer
from repro.obs import EventBus
from repro.sim.network import SyncNetwork

NODE_IDS = (11, 23, 37, 41)
# Wall-clock rounds: a runner stalled for one period misses a round and
# the streams diverge, so the period is several times the longest stall
# seen on a shared two-core box (50–70 ms).
PERIOD = 0.2
MAX_ROUNDS = 60


def canonical(events):
    """Runtime-independent rendering of one protocol-event stream."""
    return sorted(
        (e.round, e.node, e.event, repr(sorted(e.detail.items())))
        for e in events
    )


def run_sim():
    bus = EventBus()
    events = []
    bus.subscribe(events.append, "protocol")
    net = SyncNetwork(seed=0, bus=bus)
    for index, node_id in enumerate(NODE_IDS):
        net.add_correct(node_id, EarlyConsensus(index % 2))
    net.run(MAX_ROUNDS)
    return events, net.outputs()


def run_net():
    bus = EventBus()
    events = []
    bus.subscribe(events.append, "protocol")
    peers = {node_id: NetPeer(node_id) for node_id in NODE_IDS}
    book = [peer.address for peer in peers.values()]
    protocols = {}
    runners = []
    for index, node_id in enumerate(NODE_IDS):
        peers[node_id].start(book)
        protocol = EarlyConsensus(index % 2)
        protocols[node_id] = protocol
        runners.append(
            LockstepRunner(
                peers[node_id],
                protocol,
                period=PERIOD,
                max_rounds=MAX_ROUNDS,
                bus=bus,
            )
        )
    start = time.monotonic() + 0.2
    try:
        for runner in runners:
            runner.start(start)
        for runner in runners:
            runner.join(timeout=30.0)
    finally:
        for peer in peers.values():
            peer.stop()
    outputs = {
        node_id: protocol.output
        for node_id, protocol in protocols.items()
        if protocol.halted
    }
    return events, outputs


class TestCrossRuntimeParity:
    def test_semantic_event_streams_coincide(self):
        sim_events, sim_outputs = run_sim()
        net_events, net_outputs = run_net()
        assert sim_outputs == net_outputs
        assert sim_events, "sim produced no protocol events"
        assert canonical(sim_events) == canonical(net_events)
        # per-node event order is deterministic on both runtimes
        for node_id in NODE_IDS:
            sim_stream = [
                (e.round, e.event) for e in sim_events if e.node == node_id
            ]
            net_stream = [
                (e.round, e.event) for e in net_events if e.node == node_id
            ]
            assert sim_stream == net_stream
