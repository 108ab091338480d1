"""Network messages.

A message carries a *kind* (protocol-level tag such as ``"echo"``), an
optional *payload*, and an optional *instance* namespace used when several
protocol instances share the wire (parallel consensus tags messages with the
round that started the instance).

Messages must be hashable: the model discards duplicate messages from the
same sender within a round, which the simulator implements with a set.  Use
tuples/frozensets rather than lists/sets in payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.types import NodeId

#: Sentinel destination meaning "broadcast to every participant".
BROADCAST: object = object()


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable message as delivered to a recipient.

    The ``sender`` field is stamped by the network, never by the sending
    protocol, which is how the model guarantees that identifiers cannot be
    forged in direct communication.
    """

    sender: NodeId
    kind: str
    payload: Hashable = None
    instance: Hashable = None

    def matches(
        self,
        kind: str | None = None,
        payload: Any = ...,
        instance: Any = ...,
    ) -> bool:
        """Return True when this message matches every given filter.

        ``payload``/``instance`` use ``...`` (Ellipsis) as "don't care" so
        that ``None`` remains a matchable value.
        """
        if kind is not None and self.kind != kind:
            return False
        if payload is not ... and self.payload != payload:
            return False
        if instance is not ... and self.instance != instance:
            return False
        return True


@dataclass(frozen=True, slots=True)
class Send:
    """An outgoing message before the network stamps the sender.

    ``dest`` is either a concrete :data:`~repro.types.NodeId` or the
    :data:`BROADCAST` sentinel.
    """

    dest: Any
    kind: str
    payload: Hashable = None
    instance: Hashable = None

    def stamped(self, sender: NodeId) -> Message:
        """Produce the wire message with the network-stamped sender id."""
        return Message(
            sender=sender, kind=self.kind, payload=self.payload, instance=self.instance
        )


@dataclass(frozen=True, slots=True)
class BatchSend:
    """A broadcast fan-out: one kind/instance, many payloads, one entry.

    The all-broadcast protocols regularly re-echo every known tag in one
    round; staging that as k separate :class:`Send` objects is what the
    columnar plane exists to avoid.  A batch stays a single object from
    the outbox through staging — the network registers the payload tuple
    once and records one segment per sender.  ``payloads`` must be a
    tuple of hashables; an empty batch is never created
    (:meth:`Outbox.broadcast_many` drops it).
    """

    kind: str
    payloads: tuple[Hashable, ...]
    instance: Hashable = None

    def expanded(self) -> "tuple[Send, ...]":
        """The equivalent scalar broadcasts, in payload order."""
        return tuple(
            Send(BROADCAST, self.kind, payload, self.instance)
            for payload in self.payloads
        )


@dataclass(frozen=True, slots=True)
class MulticastSend:
    """A direct-send fan-out: one kind/payload/instance, many recipients.

    The mirror image of :class:`BatchSend` (one recipient set, many
    payloads): a Byzantine node telling one story to a chosen subset is
    one logical message addressed ``len(dests)`` times, and staging it
    as that many :class:`Send` objects is what makes equivocation the
    engine's most expensive traffic shape.  A multicast stays a single
    object from the strategy through staging — the network stamps its
    :class:`Message` once and queues that same object for every alive
    recipient.  ``dests`` is a tuple of concrete node ids, never
    :data:`BROADCAST`; equivalent in every observable way to its
    :meth:`expanded` scalar sends, in ``dests`` order.
    """

    dests: tuple[NodeId, ...]
    kind: str
    payload: Hashable = None
    instance: Hashable = None

    @property
    def dest(self) -> tuple[NodeId, ...]:
        """The recipients (so every send form answers ``.dest``)."""
        return self.dests

    def stamped(self, sender: NodeId) -> Message:
        """The one wire message every recipient gets."""
        return Message(sender, self.kind, self.payload, self.instance)

    def expanded(self) -> "tuple[Send, ...]":
        """The equivalent scalar direct sends, in recipient order."""
        return tuple(
            Send(dest, self.kind, self.payload, self.instance)
            for dest in self.dests
        )


def expand_sends(sends):
    """Iterate *sends* with every fan-out form expanded in place.

    Consumers that genuinely need per-send granularity (adversary
    strategies transforming traffic, the net runtime's per-recipient
    frames, the tests' reference engine) use this to stay agnostic of
    :class:`BatchSend` and :class:`MulticastSend`.
    """
    for send in sends:
        if type(send) is BatchSend or type(send) is MulticastSend:
            yield from send.expanded()
        else:
            yield send


@dataclass(slots=True)
class Outbox:
    """Collects a node's sends within one round."""

    sends: list[Send] = field(default_factory=list)

    def broadcast(
        self, kind: str, payload: Hashable = None, instance: Hashable = None
    ) -> None:
        self.sends.append(Send(BROADCAST, kind, payload, instance))

    def broadcast_many(
        self,
        kind: str,
        payloads: tuple[Hashable, ...],
        instance: Hashable = None,
    ) -> None:
        """Broadcast one message per payload as a single batched entry.

        Exactly equivalent to ``for p in payloads: broadcast(kind, p,
        instance)`` — same delivery, same duplicate suppression, same
        observable send events — but staged as one batch.
        """
        if not isinstance(payloads, tuple):
            payloads = tuple(payloads)
        if payloads:
            self.sends.append(BatchSend(kind, payloads, instance))

    def send(
        self,
        dest: NodeId,
        kind: str,
        payload: Hashable = None,
        instance: Hashable = None,
    ) -> None:
        self.sends.append(Send(dest, kind, payload, instance))

    def __len__(self) -> int:
        """Number of staged entries (a batch counts once; see ``sends``)."""
        return len(self.sends)

    def __iter__(self):
        """Iterate logical sends, expanding batches to scalar broadcasts.

        The engine reads ``sends`` directly (batches intact); everything
        else — tests, adversaries, the net runtime — iterates and sees
        the historical per-send granularity.
        """
        return expand_sends(self.sends)
