"""Strategy base classes.

A strategy receives an :class:`~repro.sim.network.AdversaryView` each round
and returns arbitrary sends.  The network still stamps the true sender id —
the model forbids forging identifiers in direct communication — but
everything else (recipients, kinds, payloads, equivocation) is free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable

from repro.sim.message import (
    BROADCAST,
    MulticastSend,
    Outbox,
    Send,
    expand_sends,
)
from repro.sim.network import AdversaryView
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId


class ByzantineStrategy(ABC):
    """Base class for Byzantine behaviours."""

    @abstractmethod
    def on_round(self, view: AdversaryView) -> Iterable[Send]:
        """Return this round's sends (possibly per-recipient, possibly none)."""

    # -- send-building helpers -----------------------------------------
    @staticmethod
    def broadcast(
        kind: str, payload: Hashable = None, instance: Hashable = None
    ) -> Send:
        return Send(BROADCAST, kind, payload, instance)

    @staticmethod
    def to(
        dest: NodeId,
        kind: str,
        payload: Hashable = None,
        instance: Hashable = None,
    ) -> Send:
        return Send(dest, kind, payload, instance)


class ProtocolWrappingStrategy(ByzantineStrategy):
    """Runs a *real* protocol internally and lets subclasses corrupt its
    output messages.

    This is the strongest practical shape of adversary for threshold
    protocols: it stays perfectly in-protocol (so it is counted in every
    quorum) while subclasses mutate, split, or suppress what goes on the
    wire.  Subclasses override :meth:`transform`.
    """

    def __init__(self, protocol: Protocol):
        self._protocol = protocol

    def on_round(self, view: AdversaryView) -> Iterable[Send]:
        outbox = Outbox()
        if not self._protocol.halted:
            api = NodeApi(
                node_id=view.node_id,
                round_no=view.round,
                # Byzantine nodes "behave as if they already know all the
                # nodes": allow direct sends anywhere.
                known_contacts=frozenset(view.all_nodes),
                outbox=outbox,
                trace_sink=None,
            )
            self._protocol.on_round(api, view.inbox)
        # Expand batched fan-outs before handing the traffic to
        # subclasses: transform() contracts on scalar Send objects.
        return self.transform(list(expand_sends(outbox.sends)), view)

    def transform(
        self, sends: list[Send], view: AdversaryView
    ) -> Iterable[Send | MulticastSend]:
        """Corrupt the honest sends.  Default: pass through unchanged."""
        return sends

    @staticmethod
    def explode_broadcast(
        send: Send, recipients: Iterable[NodeId]
    ) -> list[MulticastSend]:
        """Turn one broadcast into direct sends to *recipients* (for
        equivocation): one multicast entry, or nothing when there is
        nobody to tell.  ``expand_sends`` yields the per-recipient
        :class:`Send` objects."""
        dests = tuple(recipients)
        if not dests:
            return []
        return [MulticastSend(dests, send.kind, send.payload, send.instance)]
