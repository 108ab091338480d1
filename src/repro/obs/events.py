"""The event taxonomy: one typed vocabulary for all three runtimes.

Every observable thing a runtime does is an event object with a stable
``topic`` string.  Events are plain slotted dataclasses, *not* frozen:
``frozen=True`` routes every field assignment through
``object.__setattr__`` and makes construction ~5x slower, which matters
on the hot path (one :class:`MessageSent` per logical send).  Treat
events as immutable by convention — publishers recycle nothing, but
subscribers must never mutate what they receive.  The sync simulator (:mod:`repro.sim.network`),
the TCP lock-step runner (:mod:`repro.net.runner`) and the discrete-event
engine (:mod:`repro.asyncsim.engine`) all publish the *same* classes onto
an :class:`~repro.obs.bus.EventBus`, so every consumer — traces, metrics,
online monitors, timelines, JSONL files — works
unchanged whichever runtime drove the run.

Topics
======

========== =============================== ===============================
topic       event class                    emitted by
========== =============================== ===============================
run-start   :class:`RunStarted`            all runtimes, once per run
round-start :class:`RoundStarted`          sim + net, each round
round-end   :class:`RoundEnded`            sim + net, each round
send        :class:`MessageSent`           all runtimes, per logical send
deliver     :class:`InboxDelivered`        all runtimes, per recipient
drop        :class:`FramesDropped`         net, per purged frame batch
engine-phase :class:`EnginePhase`          sim, when a clock is injected
protocol    :class:`ProtocolEvent`         protocol code via NodeApi.emit
========== =============================== ===============================

Round-less runtimes (asyncsim) publish with ``round=0`` and carry the
simulated time in the event's ``time`` field (or ``detail["time"]`` for
protocol events); round-structured runtimes leave ``time`` as ``None``.

The JSONL rendering of this taxonomy is versioned by
:data:`SCHEMA_VERSION` (see :mod:`repro.obs.jsonl`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Collection, Hashable, Sequence

from repro.types import NodeId, Round

#: Version of the event vocabulary *and* its JSONL rendering.  Bump on
#: any field/topic change and document the migration in
#: docs/observability.md.
SCHEMA_VERSION = 1


@dataclass(slots=True)
class ProtocolEvent:
    """One semantic event emitted by a node (``NodeApi.emit``).

    This is the *semantic* stream — ``accept``, ``decide``,
    ``good-round`` — the paper's timing claims quantify over, and the
    one the cross-runtime parity test pins: the same protocol run must
    produce the same ordered ``ProtocolEvent`` stream on any runtime.
    (Exported from :mod:`repro.sim.trace` as ``TraceEvent`` for
    backward compatibility.)
    """

    round: Round
    node: NodeId
    event: str
    detail: dict[str, Any]

    topic: ClassVar[str] = "protocol"

    def get(self, key: str, default: Any = None) -> Any:
        return self.detail.get(key, default)


@dataclass(slots=True)
class RunStarted:
    """A runtime began executing a run."""

    runtime: str  # "sim" | "net" | "asyncsim"
    seed: int | None = None

    topic: ClassVar[str] = "run-start"


@dataclass(slots=True)
class RoundStarted:
    """A synchronous round began (before delivery)."""

    round: Round

    topic: ClassVar[str] = "round-start"


@dataclass(slots=True)
class RoundEnded:
    """A synchronous round finished (all sends staged/transmitted)."""

    round: Round

    topic: ClassVar[str] = "round-end"


@dataclass(slots=True)
class EnginePhase:
    """Wall time one engine phase took (observability only; emitted
    only when the engine was built with an injected clock)."""

    round: Round
    phase: str  # "deliver" | "correct" | "adversary" | "stage"
    seconds: float

    topic: ClassVar[str] = "engine-phase"


@dataclass(slots=True)
class MessageSent:
    """One logical send (a ``broadcast`` or ``send`` call).

    ``dest is None`` means broadcast.  ``staged`` is True when the sync
    engine accepted the send into a staging queue (False for per-round
    duplicates, dead destinations, and for runtimes without staging).
    """

    round: Round
    sender: NodeId
    kind: str
    payload: Hashable = None
    instance: Hashable = None
    dest: NodeId | None = None
    wire_bytes: int = 0
    staged: bool = False
    time: float | None = None

    topic: ClassVar[str] = "send"


@dataclass(slots=True)
class MessageBatchSent:
    """One batched broadcast fan-out (a ``broadcast_many`` call).

    Semantically equivalent to ``len(payloads)`` :class:`MessageSent`
    events (all broadcasts, one kind/instance); the sync engine emits
    one of these instead so an n-payload echo storm costs one event.
    ``staged`` is the number of payloads accepted into staging;
    ``staged_flags`` is a per-payload bool tuple, or ``None`` when every
    payload staged (the hot path).  ``wire_bytes`` totals the batch.

    Process-local convenience topic: the JSONL sink renders it as the
    equivalent per-payload ``send`` lines, so the on-disk vocabulary
    (and :data:`SCHEMA_VERSION`) is unchanged, and it is deliberately
    not in :data:`EVENT_TYPES`.  Subscribers that want per-send events
    and batches must subscribe to both ``send`` and ``send-batch``.
    """

    round: Round
    sender: NodeId
    kind: str
    payloads: Sequence[Hashable]
    instance: Hashable = None
    wire_bytes: int = 0
    staged: int = 0
    staged_flags: Sequence[bool] | None = None
    time: float | None = None

    topic: ClassVar[str] = "send-batch"

    def expanded(self) -> "tuple[MessageSent, ...]":
        """The equivalent per-payload ``send`` events."""
        flags = self.staged_flags
        per_payload = (
            self.wire_bytes // len(self.payloads) if self.payloads else 0
        )
        return tuple(
            MessageSent(
                round=self.round,
                sender=self.sender,
                kind=self.kind,
                payload=payload,
                instance=self.instance,
                dest=None,
                wire_bytes=per_payload,
                staged=bool(flags[i]) if flags is not None else True,
                time=self.time,
            )
            for i, payload in enumerate(self.payloads)
        )


@dataclass(slots=True)
class MessageMulticastSent:
    """One direct-send fan-out (a :class:`~repro.sim.message.MulticastSend`).

    Semantically equivalent to ``len(dests)`` :class:`MessageSent`
    events (one kind/payload/instance, one per recipient in ``dests``
    order); the sync engine emits one of these instead so a Byzantine
    node telling n recipients one story costs one event.  ``staged`` is
    the number of recipients whose copy was queued; ``staged_flags`` is
    a per-recipient bool tuple, or ``None`` when every recipient was
    alive (the hot path).  ``wire_bytes`` totals the fan-out.

    Process-local like :class:`MessageBatchSent`: the JSONL sink renders
    it as the per-recipient ``send`` lines, and it is not in
    :data:`EVENT_TYPES`.
    """

    round: Round
    sender: NodeId
    kind: str
    payload: Hashable
    instance: Hashable
    dests: Sequence[NodeId]
    wire_bytes: int = 0
    staged: int = 0
    staged_flags: Sequence[bool] | None = None
    time: float | None = None

    topic: ClassVar[str] = "send-multicast"

    def expanded(self) -> "tuple[MessageSent, ...]":
        """The equivalent per-recipient ``send`` events."""
        flags = self.staged_flags
        per_dest = self.wire_bytes // len(self.dests) if self.dests else 0
        return tuple(
            MessageSent(
                round=self.round,
                sender=self.sender,
                kind=self.kind,
                payload=self.payload,
                instance=self.instance,
                dest=dest,
                wire_bytes=per_dest,
                staged=bool(flags[i]) if flags is not None else True,
                time=self.time,
            )
            for i, dest in enumerate(self.dests)
        )


@dataclass(slots=True)
class PlaneStats:
    """Cumulative columnar-plane counters for one run.

    Emitted by the sync engine at each round end, carrying
    run-cumulative values (last one wins).  The interning counters see
    every broadcast payload and every delivered direct payload.
    ``materialized_messages`` counts Message objects the plane actually
    built (at most once per round, only when somebody iterated a
    broadcast row; a direct row hands out its stamped message); the gap
    to the logical delivery count is the plane's saving.  Process-local
    observability — not part of the JSONL vocabulary (the sink skips
    it) and not in :data:`EVENT_TYPES`.
    """

    round: Round
    payload_intern_hits: int
    unique_payloads: int
    materialized_messages: int = 0

    topic: ClassVar[str] = "plane-stats"


@dataclass(slots=True)
class DecisionEconomy:
    """Message economy of one finished run: what each decision cost.

    Emitted once by the sync engine at the end of ``run()``, after the
    last round.  ``decisions`` counts correct nodes that halted with an
    output; the per-decision ratios divide the run totals by it (zero
    decisions leaves them at 0.0 rather than dividing).  The sampled
    consensus variants exist to shrink ``messages_per_decision``; the
    benchmark harness compares this event against committed baselines.
    Process-local — not in :data:`EVENT_TYPES`.
    """

    rounds: Round
    decisions: int
    sends_total: int
    bytes_total: int
    messages_per_decision: float
    bytes_per_decision: float

    topic: ClassVar[str] = "decision-economy"


@dataclass(slots=True)
class InboxDelivered:
    """One recipient's deliveries for one round (or one asyncsim
    delivery, as a singleton batch).

    ``messages`` aliases the runtime's own delivery sequence — for the
    sync engine that is the recipient's :class:`~repro.sim.inbox.Inbox`
    itself, the one object every recipient of the round's broadcasts
    (or of one direct-message group) shares, so emitting this event
    costs no copies and builds no message until a subscriber iterates
    it.  Subscribers take ``len()`` or iterate, and must treat it as
    immutable.
    """

    round: Round
    recipient: NodeId
    messages: Collection[Any]
    time: float | None = None

    topic: ClassVar[str] = "deliver"


@dataclass(slots=True)
class FramesDropped:
    """Inbound frames discarded without delivery (net runtime: frames
    stamped outside the runner's clock window)."""

    round: Round
    node: NodeId
    count: int
    reason: str

    topic: ClassVar[str] = "drop"


#: Every event class, keyed by topic (the JSONL reader uses this).
EVENT_TYPES: dict[str, type] = {
    cls.topic: cls
    for cls in (
        ProtocolEvent,
        RunStarted,
        RoundStarted,
        RoundEnded,
        EnginePhase,
        MessageSent,
        InboxDelivered,
        FramesDropped,
    )
}
