"""The lock-step round driver.

Realises the synchronous model on a network with delay bound well under
the round period Δ: all runners share a start instant; round ``r``'s
computation happens at ``start + r·Δ``, consuming the messages stamped
``r - 1`` that arrived in the meantime.  The driven
:class:`~repro.sim.node.Protocol` is exactly the class the simulator
runs — none of the paper's algorithms know which runtime they are on.

Each runner publishes the same :mod:`repro.obs` events the simulator
does — round lifecycle, sends, deliveries, protocol events — onto its
:class:`~repro.obs.bus.EventBus` (pass a shared bus to observe a whole
cluster on one stream).  By default the bus has no subscribers, so
emission costs one ``None`` check per site.

Frames stamped outside the runner's round window — already consumed, or
further ahead than any honest peer sharing the start instant could be —
are dropped at the inbox rather than queued at face value, and surface
as ``drop`` events (see :meth:`~repro.net.peer.NetPeer.take_round`).
"""

from __future__ import annotations

import threading
import time

from repro.net.peer import NetPeer
from repro.obs.bus import EventBus
from repro.obs.events import (
    FramesDropped,
    InboxDelivered,
    MessageSent,
    ProtocolEvent,
    RoundEnded,
    RoundStarted,
    RunStarted,
)
from repro.sim.inbox import Inbox
from repro.sim.message import BROADCAST, Message, Outbox, expand_sends
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId


class LockstepRunner:
    """Drives one protocol instance over one peer, one round per Δ."""

    def __init__(
        self,
        peer: NetPeer,
        protocol: Protocol,
        period: float = 0.05,
        max_rounds: int = 120,
        bus: EventBus | None = None,
    ):
        self.peer = peer
        self.protocol = protocol
        self.period = period
        self.max_rounds = max_rounds
        self.round = 0
        self.contacts: set[NodeId] = set()
        self.bus = bus if bus is not None else EventBus()
        #: Frames this runner's peer discarded as outside the round
        #: window (mirrors the ``drop`` events).
        self.frames_dropped = 0
        self._thread: threading.Thread | None = None
        self._bus_version = -1
        self._emit_round_start = None
        self._emit_round_end = None
        self._emit_send = None
        self._emit_deliver = None
        self._emit_drop = None
        self._protocol_sink = None

    # ------------------------------------------------------------------
    def run(self, start_time: float) -> None:
        """Blocking round loop (call :meth:`start` for the threaded form)."""
        run_start = self.bus.sink(RunStarted.topic)
        if run_start is not None:
            run_start(RunStarted("net"))
        while self.round < self.max_rounds and not self.protocol.halted:
            self.round += 1
            deadline = start_time + self.round * self.period
            delay = deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._execute_round()

    def start(self, start_time: float) -> None:
        self._thread = threading.Thread(
            target=self.run,
            args=(start_time,),
            name=f"runner-{self.peer.node_id}",
            daemon=True,
        )
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    def _refresh_sinks(self) -> None:
        bus = self.bus
        self._bus_version = bus.version
        self._emit_round_start = bus.sink(RoundStarted.topic)
        self._emit_round_end = bus.sink(RoundEnded.topic)
        self._emit_send = bus.sink(MessageSent.topic)
        self._emit_deliver = bus.sink(InboxDelivered.topic)
        self._emit_drop = bus.sink(FramesDropped.topic)
        sink = bus.sink(ProtocolEvent.topic)
        if sink is None:
            self._protocol_sink = None
        else:
            # *detail* is the kwargs dict ``NodeApi.emit`` — the only
            # caller — has just built: the event owns it, no copy.
            def protocol_sink(round_no, node, event, detail, _sink=sink):
                _sink(ProtocolEvent(round_no, node, event, detail))

            self._protocol_sink = protocol_sink

    def _execute_round(self) -> None:
        if self.bus.version != self._bus_version:
            self._refresh_sinks()
        round_no = self.round
        node_id = self.peer.node_id
        if self._emit_round_start is not None:
            self._emit_round_start(RoundStarted(round_no))

        # Consume round r-1; honest in-flight stamps are r-1..r+1, so
        # anything beyond r+1 (or already consumed) is purged and
        # counted instead of queued at face value.
        dropped_before = self.peer.frames_dropped
        frames = self.peer.take_round(round_no - 1, max_round=round_no + 1)
        dropped = self.peer.frames_dropped - dropped_before
        if dropped:
            self.frames_dropped += dropped
            if self._emit_drop is not None:
                self._emit_drop(
                    FramesDropped(
                        round_no, node_id, dropped, "outside-round-window"
                    )
                )

        messages = []
        seen = set()
        for frame in frames:
            message = Message(
                sender=frame["sender"],
                kind=frame["kind"],
                payload=frame["payload"],
                instance=frame["instance"],
            )
            if message in seen:  # the model's per-round duplicate rule
                continue
            seen.add(message)
            messages.append(message)
        inbox = Inbox(messages)
        self.contacts.update(m.sender for m in inbox)
        if messages and self._emit_deliver is not None:
            self._emit_deliver(
                InboxDelivered(round_no, node_id, tuple(messages))
            )

        outbox = Outbox()
        api = NodeApi(
            node_id=node_id,
            round_no=round_no,
            known_contacts=frozenset(self.contacts),
            outbox=outbox,
            trace_sink=self._protocol_sink,
        )
        self.protocol.on_round(api, inbox)
        emit_send = self._emit_send
        # The net runtime has per-message frames, no staging plane:
        # batched fan-outs expand back to scalar sends at the wire.
        for send in expand_sends(outbox):
            if send.dest is BROADCAST:
                self.peer.broadcast(
                    round_no, send.kind, send.payload, send.instance
                )
            else:
                self.peer.send_to(
                    send.dest,
                    round_no,
                    send.kind,
                    send.payload,
                    send.instance,
                )
            if emit_send is not None:
                emit_send(
                    MessageSent(
                        round_no,
                        node_id,
                        send.kind,
                        send.payload,
                        send.instance,
                        None if send.dest is BROADCAST else send.dest,
                    )
                )
        if self._emit_round_end is not None:
            self._emit_round_end(RoundEnded(round_no))
