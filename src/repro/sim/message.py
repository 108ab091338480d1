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

from repro.errors import ConfigurationError
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
    """One send row: an outgoing kind/instance before the network stamps
    the sender.

    The id-only model has two send primitives, and a row is either: a
    *broadcast* row (``dests is None``) carries one broadcast per payload
    — ``broadcast`` appends a one-payload row, ``broadcast_many`` one row
    for its whole tuple — and a *direct* row carries its one payload to
    each node of ``dests`` in order — ``send`` appends a one-recipient
    row, and an equivocating strategy tells one story to a chosen subset
    in one row.  A row stays one object from the outbox through staging;
    :meth:`expanded` is its per-send view, payload-major.  ``payloads``
    is a tuple of hashables; the engine refuses a direct row of any
    other length than one (:meth:`stamped`).
    """

    kind: str
    payloads: tuple[Hashable, ...]
    instance: Hashable = None
    #: ``None`` for a broadcast, else the recipients' node ids.
    dests: tuple[NodeId, ...] | None = None

    @property
    def dest(self) -> Any:
        """:data:`BROADCAST`, the one recipient of a one-recipient row,
        or the recipient tuple of a fan-out."""
        dests = self.dests
        if dests is None:
            return BROADCAST
        return dests[0] if len(dests) == 1 else dests

    @property
    def payload(self) -> Hashable:
        """The payload of a one-payload row (every per-send view)."""
        (payload,) = self.payloads
        return payload

    def stamped(self, sender: NodeId) -> Message:
        """The one wire message of a one-payload row, with the
        network-stamped sender id (every recipient gets this object)."""
        payloads = self.payloads
        if len(payloads) != 1:
            raise ConfigurationError(
                f"a direct {self.kind!r} row carries {len(payloads)}"
                " payloads; a direct row carries exactly one"
            )
        return Message(sender, self.kind, payloads[0], self.instance)

    def expanded(self) -> "tuple[Send, ...]":
        """One single-send row per logical send, payload-major."""
        payloads, dests = self.payloads, self.dests
        if len(payloads) == 1 and (dests is None or len(dests) == 1):
            return (self,)
        targets = (None,) if dests is None else [(dest,) for dest in dests]
        return tuple(
            Send(self.kind, (payload,), self.instance, target)
            for payload in payloads
            for target in targets
        )


def expand_sends(sends):
    """Iterate the per-send view of a sequence of send rows.

    Consumers that genuinely need per-send granularity (adversary
    strategies transforming traffic, the net runtime's per-recipient
    frames, the tests' reference engine) read rows through this.
    """
    for send in sends:
        yield from send.expanded()


@dataclass(slots=True)
class Outbox:
    """Collects a node's sends within one round."""

    sends: list[Send] = field(default_factory=list)

    def broadcast(
        self, kind: str, payload: Hashable = None, instance: Hashable = None
    ) -> None:
        self.sends.append(Send(kind, (payload,), instance))

    def broadcast_many(
        self,
        kind: str,
        payloads: tuple[Hashable, ...],
        instance: Hashable = None,
    ) -> None:
        """Broadcast one message per payload as a single row.

        Exactly equivalent to ``for p in payloads: broadcast(kind, p,
        instance)`` — same delivery, same duplicate suppression, same
        per-send view — but staged as one row.
        """
        if not isinstance(payloads, tuple):
            payloads = tuple(payloads)
        if payloads:
            self.sends.append(Send(kind, payloads, instance))

    def send(
        self,
        dest: NodeId,
        kind: str,
        payload: Hashable = None,
        instance: Hashable = None,
    ) -> None:
        self.sends.append(Send(kind, (payload,), instance, (dest,)))

    def __len__(self) -> int:
        """Number of rows (a ``broadcast_many`` row counts once)."""
        return len(self.sends)

    def __iter__(self):
        """Iterate the per-send view of the rows.

        The engine reads ``sends`` directly (rows intact); everything
        else — tests, adversaries, the net runtime — iterates and sees
        one single-send row per logical send.
        """
        return expand_sends(self.sends)
