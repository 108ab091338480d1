"""Deterministic discrete-event engine.

Nodes exchange timestamped messages whose delivery delay is chosen, per
message, by a *scheduler* — the adversary of the asynchronous model.
Nodes may also set timers (how a node "waits" without a round structure).
Everything is ordered by (time, sequence number), so runs are exactly
reproducible.

The engine publishes the shared :mod:`repro.obs` event vocabulary onto
its :class:`~repro.obs.bus.EventBus`: sends, deliveries (as singleton
batches), and decisions.  Round-less events carry ``round=0`` and the
simulated time in their ``time`` field, per the taxonomy in
:mod:`repro.obs.events`.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.errors import ConfigurationError
from repro.obs.bus import EventBus
from repro.obs.events import (
    InboxDelivered,
    MessageSent,
    ProtocolEvent,
    RunStarted,
)
from repro.types import NodeId


@dataclass(frozen=True, slots=True)
class AsyncMessage:
    """A delivered message (sender stamped by the engine)."""

    sender: NodeId
    kind: str
    payload: Hashable = None


@dataclass(order=True)
class _QueueEntry:
    time: float
    seq: int
    recipient: NodeId = field(compare=False)
    action: str = field(compare=False)  # "message" | "timer"
    message: AsyncMessage | None = field(compare=False, default=None)
    tag: Hashable = field(compare=False, default=None)


class Scheduler(ABC):
    """Chooses the delay of every message — the delay adversary."""

    @abstractmethod
    def delay(
        self, sender: NodeId, recipient: NodeId, time: float, kind: str
    ) -> float:
        """Delivery delay (>= 0) for one message."""


class AsyncContext:
    """Per-callback capabilities handed to a node."""

    def __init__(self, engine: "AsyncEngine", node_id: NodeId):
        self._engine = engine
        self.node_id = node_id

    @property
    def time(self) -> float:
        return self._engine.time

    @property
    def peers_heard(self) -> frozenset[NodeId]:
        return frozenset(self._engine._heard_from[self.node_id])

    def broadcast(self, kind: str, payload: Hashable = None) -> None:
        """Send to every node in the system (delays chosen per recipient)."""
        for recipient in self._engine.node_ids:
            self._engine._enqueue_message(
                self.node_id, recipient, kind, payload
            )

    def send(self, dest: NodeId, kind: str, payload: Hashable = None) -> None:
        self._engine._enqueue_message(self.node_id, dest, kind, payload)

    def set_timer(self, delay: float, tag: Hashable = None) -> None:
        self._engine._enqueue_timer(self.node_id, delay, tag)


class AsyncNode(ABC):
    """A node of the event-driven system.

    Attributes:
        output: the decision value once :meth:`decide` is called.
        decided_at: the (simulated) time of the decision.
        log: the node's observable history — every received message and
            the decision, in order.  Two executions are indistinguishable
            to a node exactly when its logs coincide; the impossibility
            experiments compare these.
    """

    def __init__(self) -> None:
        self.output: Any = None
        self.decided: bool = False
        self.decided_at: float | None = None
        self.log: list[tuple] = []

    @abstractmethod
    def on_start(self, ctx: AsyncContext) -> None:
        """Called once at time 0."""

    @abstractmethod
    def on_message(self, ctx: AsyncContext, message: AsyncMessage) -> None:
        """Called for each delivered message."""

    def on_timer(self, ctx: AsyncContext, tag: Hashable) -> None:
        """Called when a timer set via ``ctx.set_timer`` fires."""

    def decide(self, ctx: AsyncContext, value: Any) -> None:
        if not self.decided:
            self.decided = True
            self.output = value
            self.decided_at = ctx.time
            self.log.append(("decide", value))
            engine = ctx._engine
            if engine.bus.wants(ProtocolEvent.topic):
                engine.bus.publish(
                    ProtocolEvent(
                        0,
                        ctx.node_id,
                        "decide",
                        {"value": value, "time": ctx.time},
                    )
                )


class AsyncEngine:
    """The discrete-event loop."""

    def __init__(self, scheduler: Scheduler, bus: EventBus | None = None):
        self.scheduler = scheduler
        #: The run's event plane (no subscribers by default, so the
        #: event loop pays one membership check per emission site).
        self.bus = bus if bus is not None else EventBus()
        self.time: float = 0.0
        self._nodes: dict[NodeId, AsyncNode] = {}
        self._queue: list[_QueueEntry] = []
        self._seq = 0
        self._heard_from: dict[NodeId, set[NodeId]] = {}
        self.delivered: int = 0

    @property
    def node_ids(self) -> list[NodeId]:
        return sorted(self._nodes)

    def add_node(self, node_id: NodeId, node: AsyncNode) -> None:
        if node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node_id}")
        self._nodes[node_id] = node
        self._heard_from[node_id] = set()

    def _enqueue_message(
        self, sender: NodeId, recipient: NodeId, kind: str, payload: Hashable
    ) -> None:
        if recipient not in self._nodes:
            return
        delay = self.scheduler.delay(sender, recipient, self.time, kind)
        if self.bus.wants(MessageSent.topic):
            self.bus.publish(
                MessageSent(
                    0, sender, kind, (payload,), dests=(recipient,),
                    time=self.time,
                )
            )
        self._seq += 1
        heapq.heappush(
            self._queue,
            _QueueEntry(
                time=self.time + max(0.0, delay),
                seq=self._seq,
                recipient=recipient,
                action="message",
                message=AsyncMessage(sender, kind, payload),
            ),
        )

    def _enqueue_timer(
        self, node_id: NodeId, delay: float, tag: Hashable
    ) -> None:
        self._seq += 1
        heapq.heappush(
            self._queue,
            _QueueEntry(
                time=self.time + max(0.0, delay),
                seq=self._seq,
                recipient=node_id,
                action="timer",
                tag=tag,
            ),
        )

    def run(self, until: float = float("inf")) -> float:
        """Start every node, drain the queue until *until*; returns the
        final simulated time."""
        if self.bus.wants(RunStarted.topic):
            self.bus.publish(RunStarted("asyncsim"))
        for node_id in self.node_ids:
            ctx = AsyncContext(self, node_id)
            self._nodes[node_id].on_start(ctx)
        emit_deliver = self.bus.sink(InboxDelivered.topic)
        while self._queue and self._queue[0].time <= until:
            entry = heapq.heappop(self._queue)
            self.time = max(self.time, entry.time)
            node = self._nodes[entry.recipient]
            ctx = AsyncContext(self, entry.recipient)
            if entry.action == "message":
                self.delivered += 1
                self._heard_from[entry.recipient].add(entry.message.sender)
                if emit_deliver is not None:
                    emit_deliver(
                        InboxDelivered(
                            0,
                            entry.recipient,
                            (entry.message,),
                            time=self.time,
                        )
                    )
                node.log.append(
                    (
                        "recv",
                        entry.message.sender,
                        entry.message.kind,
                        entry.message.payload,
                    )
                )
                node.on_message(ctx, entry.message)
            else:
                node.on_timer(ctx, entry.tag)
        return self.time

    def outputs(self) -> dict[NodeId, Any]:
        return {
            nid: node.output
            for nid, node in self._nodes.items()
            if node.decided
        }

    def node(self, node_id: NodeId) -> AsyncNode:
        return self._nodes[node_id]
