"""The event taxonomy: one typed vocabulary for all three runtimes.

Every observable thing a runtime does is an event object with a stable
``topic`` string.  Events are plain slotted dataclasses, *not* frozen:
``frozen=True`` routes every field assignment through
``object.__setattr__`` and makes construction ~5x slower, which matters
on the hot path (one :class:`MessageSent` per send row).  Treat
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
send        :class:`MessageSent`           all runtimes, per send row
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
    """One send row: a :class:`~repro.sim.message.Send` as staged.

    ``dests is None`` means broadcast: one logical send per payload.
    Otherwise the one payload goes to each of ``dests``.  A runtime
    emits one event per row — a ``broadcast_many`` call or a strategy's
    fan-out is one event, not one per send — and :meth:`expanded` gives
    the per-send view, payload-major.  ``wire_bytes`` is one frame size
    per payload (a frame names no recipient, so every recipient's copy
    costs the same), or empty when the run does not cost frames.
    ``staged`` counts the sends the sync engine accepted into staging
    (a per-round duplicate or a dead recipient is not staged, and
    runtimes without staging stage nothing); ``staged_flags`` gives one
    flag per send, or is ``None`` when every send shares one verdict.
    """

    round: Round
    sender: NodeId
    kind: str
    payloads: Sequence[Hashable]
    instance: Hashable = None
    dests: Sequence[NodeId] | None = None
    wire_bytes: Sequence[int] = ()
    staged: int = 0
    staged_flags: Sequence[bool] | None = None
    time: float | None = None

    topic: ClassVar[str] = "send"

    @property
    def payload(self) -> Hashable:
        """The payload of a one-payload row (every per-send view)."""
        (payload,) = self.payloads
        return payload

    @property
    def dest(self) -> NodeId | None:
        """``None`` for a broadcast, else the one recipient of a
        one-recipient row (every direct per-send view)."""
        dests = self.dests
        if dests is None:
            return None
        (dest,) = dests
        return dest

    def expanded(self) -> "tuple[MessageSent, ...]":
        """One single-send event per logical send, payload-major, each
        with its own staged flag and frame size."""
        payloads, dests = self.payloads, self.dests
        if len(payloads) == 1 and (dests is None or len(dests) == 1):
            return (self,)
        targets = (None,) if dests is None else [(dest,) for dest in dests]
        flags = iter(
            self.staged_flags
            or (self.staged > 0,) * (len(payloads) * len(targets))
        )
        wire = self.wire_bytes
        return tuple(
            MessageSent(
                self.round,
                self.sender,
                self.kind,
                (payload,),
                self.instance,
                target,
                wire[i : i + 1],
                next(flags),
                None,
                self.time,
            )
            for i, payload in enumerate(payloads)
            for target in targets
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
