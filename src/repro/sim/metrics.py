"""Run metrics: rounds, logical sends, wire deliveries, per-kind counts.

A *logical send* is one ``broadcast``/``send`` call; a *delivery* is one
message landing in one inbox (a broadcast to ``k`` recipients is one send
and ``k`` deliveries).  The paper's message-complexity discussion counts
logical sends, so benchmarks report both.

Metrics is a *subscriber* of the run's :class:`~repro.obs.bus.EventBus`
(:meth:`Metrics.attach`): whichever runtime publishes the wire events
(sim, net, asyncsim), the same counters accumulate.  The ``record_*``
methods remain for direct use in tests and ad-hoc tooling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.types import NodeId


@dataclass
class Metrics:
    """Aggregated counters for one run (any runtime)."""

    rounds: int = 0
    sends_total: int = 0
    deliveries_total: int = 0
    bytes_total: int = 0
    #: Entries appended to the engine's staging queues.  A broadcast
    #: stages exactly one shared entry however many nodes receive it, so
    #: this is the engine's per-round allocation footprint (the pre-O(sends)
    #: engine staged one entry per recipient, i.e. deliveries_total).
    staged_total: int = 0
    #: Inbound frames the net runtime discarded without delivery
    #: (stamped outside the runner's round window).
    frames_dropped: int = 0
    sends_by_node: Counter = field(default_factory=Counter)
    sends_by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    sends_by_round: Counter = field(default_factory=Counter)
    deliveries_by_round: Counter = field(default_factory=Counter)
    staged_by_round: Counter = field(default_factory=Counter)
    #: Engine wall time by phase ("deliver", "correct", "adversary",
    #: "stage") and by round.  Populated only when the network was built
    #: with an injected clock (benchmarks); simulations themselves never
    #: read wall time, so these never influence behaviour.
    engine_time_by_phase: Counter = field(default_factory=Counter)
    engine_time_by_round: Counter = field(default_factory=Counter)
    #: Columnar-plane interning counters (cumulative; updated from
    #: ``plane-stats`` events).
    payload_intern_hits: int = 0
    unique_payloads: int = 0
    #: Message objects the columnar plane actually built — the honest
    #: "work done" figure next to ``deliveries_total``, which counts
    #: *logical* deliveries (staged × recipients) and vastly overstates
    #: the work done.
    materialized_messages: int = 0
    #: True once a plane-stats event arrived (None before): the sync
    #: engine has no other message path, so this can never be False.
    columnar_active: bool | None = None
    #: Decision economy (from a finished run's ``run-end`` event):
    #: correct nodes that halted with an output, and the run's message
    #: cost amortized over them (0.0 with no decision).
    decisions: int = 0
    messages_per_decision: float = 0.0
    bytes_per_decision: float = 0.0

    # ------------------------------------------------------------------
    # Event-bus subscription
    # ------------------------------------------------------------------
    def attach(self, bus) -> "Metrics":
        """Subscribe these counters to *bus*; returns self for chaining."""
        bus.subscribe(self._on_round_start, "round-start")
        bus.subscribe(self._on_send, "send")
        bus.subscribe(self._on_deliver, "deliver")
        bus.subscribe(self._on_phase, "engine-phase")
        bus.subscribe(self._on_drop, "drop")
        bus.subscribe(self._on_plane, "plane-stats")
        bus.subscribe(self._on_run_end, "run-end")
        return self

    def detach(self, bus) -> None:
        """Stop counting events from *bus* (zero-cost once detached)."""
        bus.unsubscribe(self._on_round_start)
        bus.unsubscribe(self._on_send)
        bus.unsubscribe(self._on_deliver)
        bus.unsubscribe(self._on_phase)
        bus.unsubscribe(self._on_drop)
        bus.unsubscribe(self._on_plane)
        bus.unsubscribe(self._on_run_end)

    def _on_round_start(self, event) -> None:
        self.record_round(event.round)

    def _on_send(self, event) -> None:
        # Hot path (one call per send row): counters are bumped inline
        # rather than via record_send/record_staged.  A row is one
        # logical send per payload, times its recipients when direct.
        round_no = event.round
        kind = event.kind
        dests = event.dests
        copies = 1 if dests is None else len(dests)
        count = len(event.payloads) * copies
        self.sends_total += count
        self.sends_by_node[event.sender] += count
        self.sends_by_kind[kind] += count
        self.sends_by_round[round_no] += count
        wire_bytes = event.wire_bytes
        if wire_bytes:
            wire_bytes = sum(wire_bytes) * copies
            self.bytes_total += wire_bytes
            self.bytes_by_kind[kind] += wire_bytes
        staged = event.staged
        if staged:
            self.staged_total += staged
            self.staged_by_round[round_no] += staged

    def _on_plane(self, event) -> None:
        # Cumulative counters: the latest event carries the run totals.
        self.payload_intern_hits = event.payload_intern_hits
        self.unique_payloads = event.unique_payloads
        self.materialized_messages = event.materialized_messages
        self.columnar_active = True

    def _on_run_end(self, event) -> None:
        decisions = event.decisions
        if event.error is None and decisions:
            self.decisions = decisions
            self.messages_per_decision = self.sends_total / decisions
            self.bytes_per_decision = self.bytes_total / decisions

    def _on_deliver(self, event) -> None:
        count = len(event.messages)
        self.deliveries_total += count
        self.deliveries_by_round[event.round] += count

    def _on_phase(self, event) -> None:
        self.record_engine_time(event.round, event.phase, event.seconds)

    def _on_drop(self, event) -> None:
        self.frames_dropped += event.count

    # ------------------------------------------------------------------
    # Direct recording
    # ------------------------------------------------------------------
    def record_send(
        self,
        round_no: int,
        sender: NodeId,
        kind: str,
        wire_bytes: int = 0,
    ) -> None:
        self.sends_total += 1
        self.sends_by_node[sender] += 1
        self.sends_by_kind[kind] += 1
        self.sends_by_round[round_no] += 1
        if wire_bytes:
            self.bytes_total += wire_bytes
            self.bytes_by_kind[kind] += wire_bytes

    def record_delivery(self, round_no: int, count: int = 1) -> None:
        self.deliveries_total += count
        self.deliveries_by_round[round_no] += count

    def record_staged(self, round_no: int, count: int = 1) -> None:
        """Count entries entering the engine's staging queues."""
        self.staged_total += count
        self.staged_by_round[round_no] += count

    def record_engine_time(
        self, round_no: int, phase: str, seconds: float
    ) -> None:
        """Attribute engine wall time to a phase (observability only)."""
        self.engine_time_by_phase[phase] += seconds
        self.engine_time_by_round[round_no] += seconds

    def record_round(self, round_no: int) -> None:
        self.rounds = max(self.rounds, round_no)

    @property
    def sends_per_round(self) -> float:
        """Average logical sends per executed round."""
        return self.sends_total / self.rounds if self.rounds else 0.0

    def summary(self) -> dict:
        """A plain-dict summary suitable for reports and JSON dumps."""
        summary = {
            "rounds": self.rounds,
            "sends_total": self.sends_total,
            "deliveries_total": self.deliveries_total,
            "staged_total": self.staged_total,
            "sends_per_round": round(self.sends_per_round, 2),
            "kinds": dict(self.sends_by_kind),
            "payload_intern_hits": self.payload_intern_hits,
            "unique_payloads": self.unique_payloads,
            "materialized_messages": self.materialized_messages,
        }
        if self.columnar_active is not None:
            summary["columnar_active"] = self.columnar_active
        if self.decisions:
            summary["decisions"] = self.decisions
            summary["messages_per_decision"] = round(
                self.messages_per_decision, 2
            )
            if self.bytes_per_decision:
                summary["bytes_per_decision"] = round(
                    self.bytes_per_decision, 2
                )
        if self.bytes_total:
            summary["bytes_total"] = self.bytes_total
            summary["bytes_by_kind"] = dict(self.bytes_by_kind)
        if self.frames_dropped:
            summary["frames_dropped"] = self.frames_dropped
        if self.engine_time_by_phase:
            summary["engine_time_by_phase"] = {
                phase: round(seconds, 6)
                for phase, seconds in self.engine_time_by_phase.items()
            }
        return summary
