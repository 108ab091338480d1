"""Srikanth–Toueg authenticated-echo reliable broadcast (known ``n, f``).

The classical abstraction the paper's Algorithm 1 generalizes.  With
``n`` and ``f`` known, the thresholds are absolute: re-echo at ``f + 1``
distinct echoes (at least one correct node backs the message), accept at
``n - f`` (a quorum every correct node will eventually see).  Correct for
``n > 3f``.

The ``classic`` variant of ``reliable-broadcast`` (benchmark E9), judged
on Algorithm 1's three properties like the id-only version.
"""

from __future__ import annotations

from typing import Hashable

from repro.sim.inbox import Inbox
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId, Round

KIND_MESSAGE = "msg"
KIND_ECHO = "echo"


class SrikanthTouegBroadcast(Protocol):
    """One reliable-broadcast slot with known ``n`` and ``f``.

    Args:
        sender_id: the designated sender.
        n: total number of nodes (global knowledge the id-only model
            denies).
        f: the failure bound.
        message: the payload, when this node is the sender.
    """

    def __init__(
        self, sender_id: NodeId, n: int, f: int, message: Hashable = None
    ):
        super().__init__()
        if not n > 3 * f:
            raise ValueError(f"n={n}, f={f} violates n > 3f")
        self.sender_id = sender_id
        self.n = n
        self.f = f
        self.message = message
        self.accepted: dict[tuple[Hashable, NodeId], Round] = {}
        self._echoed: set[tuple[Hashable, NodeId]] = set()
        self._echo_senders: dict[tuple[Hashable, NodeId], set[NodeId]] = {}

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        if api.round == 1:
            if api.node_id == self.sender_id:
                api.broadcast(KIND_MESSAGE, self.message)
                api.emit("rb-sent", message=self.message)
            return
        if api.round == 2:
            for msg in inbox.from_sender(self.sender_id).filter(KIND_MESSAGE):
                self._echo(api, (msg.payload, self.sender_id))
            return

        for msg in inbox.filter(KIND_ECHO):
            self._echo_senders.setdefault(msg.payload, set()).add(msg.sender)
        for tag, senders in self._echo_senders.items():
            if tag in self.accepted:
                continue
            if len(senders) >= self.f + 1:
                self._echo(api, tag)
            if len(senders) >= self.n - self.f:
                self.accepted[tag] = api.round
                api.emit("accept", tag=tag)

    def _echo(self, api: NodeApi, tag: tuple[Hashable, NodeId]) -> None:
        if tag not in self._echoed:
            self._echoed.add(tag)
            api.broadcast(KIND_ECHO, tag)
            api.emit("rb-echo", tag=tag)

    def has_accepted(self, message: Hashable = ...) -> bool:
        if message is ...:
            return bool(self.accepted)
        return (message, self.sender_id) in self.accepted
