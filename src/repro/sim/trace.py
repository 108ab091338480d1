"""Event tracing.

Protocols emit semantic events (``accept``, ``decide``, ``good-round``)
through :meth:`repro.sim.node.NodeApi.emit`; the trace records them with the
round and node so that stream verdicts can verify timing-sensitive claims
such as the relay property ("if a correct node accepts in round ``r``, every
correct node accepts by ``r + 1``") after the run.

The event class itself lives in :mod:`repro.obs.events` as
:class:`~repro.obs.events.ProtocolEvent` (re-exported here as
``TraceEvent`` for backward compatibility), and a :class:`Trace` is one
subscriber of the run's :class:`~repro.obs.bus.EventBus`
(:meth:`Trace.attach`) — it keeps the append-only log and the query
helpers; the stream itself is the bus's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.events import ProtocolEvent
from repro.types import NodeId, Round

#: Backward-compatible alias: the semantic event type now shared by all
#: runtimes.
TraceEvent = ProtocolEvent

__all__ = ["Trace", "TraceEvent"]


@dataclass
class Trace:
    """Append-only semantic-event log for one run.

    Live observers (the verdicts of :mod:`repro.analysis.verdicts`)
    subscribe to the run's bus, not to the log; the log is what
    :func:`repro.analysis.verdicts.fold` reads after the run.
    """

    events: list[TraceEvent] = field(default_factory=list)

    def attach(self, bus) -> "Trace":
        """Log the ``protocol`` events of *bus*; returns self."""
        bus.subscribe(self.ingest, TraceEvent.topic)
        return self

    def detach(self, bus) -> None:
        """Stop logging events from *bus*."""
        bus.unsubscribe(self.ingest)

    def ingest(self, event: TraceEvent) -> None:
        """Append an already-constructed event (the bus handler)."""
        self.events.append(event)

    def record(
        self, round_no: Round, node: NodeId, event: str, detail: dict[str, Any]
    ) -> None:
        """Construct and append an event directly (tests, ad-hoc use)."""
        self.ingest(TraceEvent(round_no, node, event, dict(detail)))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of(self, event: str, node: NodeId | None = None) -> list[TraceEvent]:
        """All events with the given name (optionally from one node)."""
        return [
            e
            for e in self.events
            if e.event == event and (node is None or e.node == node)
        ]

    def first(self, event: str, node: NodeId | None = None) -> TraceEvent | None:
        """The earliest matching event, or None."""
        matching = self.of(event, node)
        return min(matching, key=lambda e: e.round) if matching else None

    def rounds_of(self, event: str) -> dict[NodeId, Round]:
        """Map node -> earliest round it emitted *event*."""
        earliest: dict[NodeId, Round] = {}
        for e in self.events:
            if e.event == event:
                if e.node not in earliest or e.round < earliest[e.node]:
                    earliest[e.node] = e.round
        return earliest
