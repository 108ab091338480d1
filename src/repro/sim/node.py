"""Correct-node protocol interface.

A protocol is a state machine driven once per round.  Round 1 is the
*initial* round (empty inbox, initial broadcasts); from round 2 on the inbox
holds the messages sent in the previous round.  The paper's pseudocode maps
onto this directly: "each iteration of the loop is a single round".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable

from repro.errors import ProtocolViolation
from repro.sim.inbox import Inbox
from repro.sim.message import Outbox
from repro.types import NodeId, Round


class NodeApi:
    """Per-round capabilities handed to a protocol.

    Enforces the id-only model for correct nodes:

    * ``broadcast`` reaches every participant, known or unknown;
    * ``send`` may only target a node that previously sent us a message;
    * the sender id on the wire is stamped by the network, not the caller.
    """

    __slots__ = (
        "node_id",
        "round",
        "_known_contacts",
        "_outbox",
        "_trace_sink",
    )

    def __init__(
        self,
        node_id: NodeId,
        round_no: Round,
        known_contacts: frozenset[NodeId],
        outbox: Outbox,
        trace_sink=None,
    ):
        self.node_id = node_id
        self.round = round_no
        self._known_contacts = known_contacts
        self._outbox = outbox
        self._trace_sink = trace_sink

    def broadcast(
        self, kind: str, payload: Hashable = None, instance: Hashable = None
    ) -> None:
        """Broadcast a message to all participants (delivered next round)."""
        self._outbox.broadcast(kind, payload, instance)

    def broadcast_many(
        self,
        kind: str,
        payloads,
        instance: Hashable = None,
    ) -> None:
        """Broadcast one message per payload (delivered next round).

        Semantically identical to calling :meth:`broadcast` for each
        payload; the fan-out is staged as one batch so a round that
        re-echoes every known tag costs O(1) on the wire-staging path.
        Pass the same tuple object from every node and the network
        interns the batch once per round, by identity — the canonical
        example is :attr:`EchoDecision.echo
        <repro.core.quorum.EchoDecision.echo>`, round-shared on the
        quorum plane's fast path: hand it over as is, never copied.
        """
        self._outbox.broadcast_many(kind, payloads, instance)

    def send(
        self,
        dest: NodeId,
        kind: str,
        payload: Hashable = None,
        instance: Hashable = None,
    ) -> None:
        """Send directly to *dest*, which must be a prior contact."""
        if dest not in self._known_contacts:
            raise ProtocolViolation(
                f"node {self.node_id} tried to send directly to {dest} "
                "without having received a message from it"
            )
        self._outbox.send(dest, kind, payload, instance)

    def knows(self, node: NodeId) -> bool:
        """True when *node* has previously sent us a message."""
        return node in self._known_contacts

    def emit(self, event: str, **detail: Any) -> None:
        """Record a trace event (accepted a message, decided, ...)."""
        if self._trace_sink is not None:
            self._trace_sink(self.round, self.node_id, event, detail)


class Protocol(ABC):
    """Base class for a correct node's behaviour.

    Subclasses implement :meth:`on_round`; the simulator calls it once per
    round until :meth:`decide` (or :meth:`halt`) is called or the round
    budget is exhausted.  ``self.output`` carries the decision value for
    deciding protocols; non-terminating abstractions (plain reliable
    broadcast) simply never halt.
    """

    def __init__(self) -> None:
        self.output: Any = None
        self.halted: bool = False
        self.decided_round: Round | None = None
        self.wants_to_leave: bool = False

    @abstractmethod
    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        """Handle one synchronous round.

        ``api.round == 1`` on the initial round, whose inbox is empty.
        """

    def decide(self, api: NodeApi, value: Any) -> None:
        """Record the protocol's output and stop participating."""
        self.output = value
        self.halted = True
        self.decided_round = api.round
        api.emit("decide", value=value)

    def halt(self, api: NodeApi) -> None:
        """Stop participating without producing an output."""
        self.halted = True
        self.decided_round = api.round
        api.emit("halt")

    def request_leave(self) -> None:
        """Mark this node as wanting to leave a dynamic network.

        Dynamic protocols (total ordering) check this flag and perform the
        paper's leave handshake (broadcast ``absent``, drain outstanding
        consensus instances) before actually halting.
        """
        self.wants_to_leave = True
