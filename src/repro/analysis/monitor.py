"""Online invariant monitors: fail on the round a property breaks.

Post-hoc checkers (:mod:`repro.analysis.checkers`) verify a finished
run; when a seed misbehaves you then want the *round* where the
violation was born.  Monitors subscribe to the run's live semantic
events and raise :class:`~repro.errors.PropertyViolation` the moment an
invariant breaks, so the traceback lands inside the offending round
with all state intact.

A monitor attaches to an :class:`~repro.obs.bus.EventBus`, so it works
on *any* runtime (the net runners and the asyncsim engine publish the
same ``protocol`` events the simulator does).

Usage::

    network = SyncNetwork(seed=3)
    AgreementMonitor().attach(network.bus)
    ...
    network.run(100)   # raises at the first conflicting decision
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import PropertyViolation
from repro.obs.bus import EventBus
from repro.obs.events import ProtocolEvent
from repro.sim.trace import TraceEvent
from repro.types import NodeId


class TraceMonitor:
    """Base class: inspect each ``protocol`` event of a bus."""

    def attach(self, bus: EventBus) -> "TraceMonitor":
        bus.subscribe(self.on_event, ProtocolEvent.topic)
        return self

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError


class AgreementMonitor(TraceMonitor):
    """Raises when two ``decide`` events carry different values.

    Optionally scoped to a subset of nodes (pass the correct ids when
    the network also hosts decided test doubles).
    """

    def __init__(self, nodes: set[NodeId] | None = None,
                 event: str = "decide"):
        self._nodes = nodes
        self._event = event
        self.first_value: Any = None
        self.first_node: NodeId | None = None
        self.decisions: dict[NodeId, Any] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.event != self._event:
            return
        if self._nodes is not None and event.node not in self._nodes:
            return
        value = event.get("value")
        self.decisions[event.node] = value
        if self.first_node is None:
            self.first_node, self.first_value = event.node, value
        elif value != self.first_value:
            raise PropertyViolation(
                f"agreement broken in round {event.round}: node "
                f"{event.node} decided {value!r} but node "
                f"{self.first_node} decided {self.first_value!r}"
            )


class RelayMonitor(TraceMonitor):
    """Raises when reliable-broadcast acceptances of one tag spread over
    more than ``window`` rounds (the relay property says <= 1)."""

    def __init__(self, window: int = 1, event: str = "accept"):
        self._window = window
        self._event = event
        self._first_round: dict[Hashable, int] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.event != self._event:
            return
        tag = event.get("tag")
        first = self._first_round.setdefault(tag, event.round)
        if event.round - first > self._window:
            raise PropertyViolation(
                f"relay broken: tag {tag!r} first accepted in round "
                f"{first}, node {event.node} accepted in round "
                f"{event.round}"
            )


class BoundMonitor(TraceMonitor):
    """Raises when a numeric event field leaves a closed interval.

    E.g. attach ``BoundMonitor('approx-iterate', 'estimate', lo, hi)``
    to enforce Lemma aaWithin *during* an approximate-agreement run.
    """

    def __init__(self, event: str, field: str, lo: float, hi: float):
        self._event = event
        self._field = field
        self._lo = lo
        self._hi = hi

    def on_event(self, event: TraceEvent) -> None:
        if event.event != self._event:
            return
        value = event.get(self._field)
        if value is None:
            return
        if not self._lo <= value <= self._hi:
            raise PropertyViolation(
                f"bound broken in round {event.round}: node "
                f"{event.node} {self._event}.{self._field} = {value!r} "
                f"outside [{self._lo}, {self._hi}]"
            )


class ChainConsistencyMonitor(TraceMonitor):
    """Raises when two nodes finalize different entries for one round.

    Consumes the ``to-chain`` events of
    :class:`~repro.core.total_order.TotalOrderNode` — whose ``entries``
    detail carries the chain entries that just became final — and keeps
    one canonical block per machine round.  Theorem 11.1's chain-prefix
    property holds exactly when every node's block for a round matches
    the canonical one (late joiners simply start at a later round), so
    the monitor catches a prefix violation in the round it is born,
    both on a live bus and over a rehydrated JSONL stream.
    """

    def __init__(self) -> None:
        #: machine round -> the first finalized entry block seen for it.
        self.blocks: dict[int, list] = {}

    @staticmethod
    def _normalize(entry: Any) -> tuple:
        # Live events carry (round, source, value) tuples; a JSONL
        # round-trip renders them as lists.  Either way the first
        # element is the machine round.
        return tuple(entry)

    def on_event(self, event: TraceEvent) -> None:
        if event.event != "to-chain":
            return
        per_round: dict[int, list] = {}
        for raw in event.get("entries") or ():
            entry = self._normalize(raw)
            per_round.setdefault(entry[0], []).append(entry)
        for machine_round, block in per_round.items():
            known = self.blocks.setdefault(machine_round, block)
            if known != block:
                raise PropertyViolation(
                    f"chain-prefix broken in round {event.round}: node "
                    f"{event.node} finalized {block!r} for machine round "
                    f"{machine_round} but the canonical block is "
                    f"{known!r}"
                )
