"""The synchronous round engine.

Executes the id-only model exactly:

* lock-step rounds; messages sent in round ``r`` arrive at round ``r + 1``;
* broadcasts reach every participant alive at delivery time (including the
  sender — the paper's approximate agreement broadcasts "to all the nodes
  (including self)", and including nodes that join between send and
  delivery: the broadcast recipient set is resolved when the messages are
  handed out, not when they are queued);
* a correct node may direct-send only to prior contacts; the engine stamps
  sender ids so they cannot be forged;
* duplicate messages from one sender within one round are discarded;
* Byzantine actors run *after* the correct nodes each round and — in rushing
  mode — see the correct nodes' current-round traffic before choosing their
  own, the strongest adversary the model admits.

The engine knows nothing about any particular protocol; it moves messages,
tracks contacts, applies membership changes, and publishes everything
observable onto the run's :class:`~repro.obs.bus.EventBus` — the default
:class:`~repro.sim.metrics.Metrics` and :class:`~repro.sim.trace.Trace`
are ordinary subscribers of that bus, as are verdicts, recorders, and
JSONL sinks (see docs/observability.md).  Per-topic sinks are cached
against the bus version, so a topic nobody subscribed to costs the hot
path one ``None`` check per emission site.

There is one message path and one send form, the
:class:`~repro.sim.message.Send` row, published as one ``send`` event.
Staging is O(send rows), not O(sends x recipients): broadcast rows go into
the round's struct-of-arrays columns (:mod:`repro.sim.columnar` — a
one-payload row is four list appends, a longer ``broadcast_many`` row one
interned segment), and only direct rows are stamped into
:class:`~repro.sim.message.Message` objects on per-node queues — once per
row, however many recipients it names (what an equivocating strategy
returns per story): the one message object is appended to every alive
recipient's queue.  At delivery each fresh direct message becomes one row
of the same columns, past the broadcasts.  Duplicate suppression happens
against the columns' dedup keys plus one lookup per distinct direct
message, so the all-broadcast hot path performs no per-recipient hashing
at all.

Delivery is O(quorum work), not O(nodes x quorum work): every inbox is a
:class:`~repro.sim.columnar.ColumnarIndex` row view of the round's
columns.  Every recipient of just the round's broadcasts aliases one
shared view, so each per-kind distinct-sender count the protocols ask
for is computed once per round, not once per node; recipients with
surviving direct messages share one view per *recipient group* (the
recipients whose direct queues hold the same messages in the same
order, i.e. the victims of one story): the broadcast rows plus the
group's direct rows.  Every view is read-only: no recipient may mutate
the inbox or index it is handed.  The protocols' *quorum-tally plane*
rides the same sharing one layer up: per-instance decoded vote bases,
membership back-fill sets and membership restrictions are memoized on
the round's shared index (:meth:`~repro.sim.inbox.InboxIndex.derive` /
:meth:`~repro.sim.inbox.InboxIndex.restricted`), so even full
parallel-consensus tallies are built once per round and only per-node
substitution deltas remain per recipient.  Per-node engine state that is
identical from round to round (the contacts frozenset handed to NodeApi,
the sorted alive-node lists) is cached and invalidated only when it can
change.

Delivering everything is the model's synchrony guarantee.  An engine that
breaks it on purpose (:class:`~repro.sim.lossy.LossyNetwork`) does not
fork the path: it installs a per-recipient *delivery mask* — a row mask
over the same columns, see :meth:`SyncNetwork._collect` — and only the
recipients the mask actually touches leave the shared index for a
private inbox of the rows they keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Iterable, Sequence
from typing import Protocol as TypingProtocol

from repro.errors import (
    ConfigurationError,
    RoundLimitExceeded,
    failure_text,
)
from repro.obs.bus import EventBus
from repro.obs.events import (
    EnginePhase,
    InboxDelivered,
    MessageSent,
    PlaneStats,
    ProtocolEvent,
    RoundEnded,
    RoundStarted,
    RunEnded,
    RunStarted,
)
from repro.sim.columnar import ColumnarIndex, ColumnarPlane
from repro.sim.inbox import Inbox
from repro.sim.membership import MembershipSchedule
from repro.sim.message import Message, Outbox, Send
from repro.sim.metrics import Metrics
from repro.sim.node import NodeApi, Protocol
from repro.sim.rng import Random, make_rng
from repro.sim.trace import Trace
from repro.types import NodeId, Round


#: Shared empty inbox for nodes with no deliveries this round.  Inboxes
#: are immutable views, so one instance serves every such node.
_EMPTY_INBOX = Inbox()


class ByzantineActor(TypingProtocol):
    """Structural interface for Byzantine strategies (see repro.adversary)."""

    def on_round(self, view: "AdversaryView") -> Iterable[Send]:
        """Return this round's (arbitrary) send rows."""
        ...


@dataclass
class AdversaryView:
    """Everything a Byzantine node gets to see in one round.

    The adversary is omniscient about membership ("it can behave as if it
    already knows all the nodes") and, in rushing mode, also sees what every
    correct node just sent this round before speaking itself.
    """

    node_id: NodeId
    round: Round
    inbox: Inbox
    all_nodes: frozenset[NodeId]
    correct_nodes: frozenset[NodeId]
    byzantine_nodes: frozenset[NodeId]
    rng: Random
    #: (sender, single-send row) pairs from correct nodes this round, in
    #: the rows' per-send view; empty unless the network runs in rushing
    #: mode.
    correct_traffic: tuple[tuple[NodeId, Send], ...] = ()


@dataclass(slots=True)
class _NodeState:
    """Engine-internal per-node bookkeeping."""

    node_id: NodeId
    behaviour: Any  # Protocol or ByzantineActor
    byzantine: bool
    alive: bool = True
    joined_round: Round = 1
    left_round: Round | None = None
    contacts: set[NodeId] = field(default_factory=set)
    #: Stamped direct messages queued for delivery at the next round.
    #: Broadcasts never appear here — they live in the network's shared
    #: per-round columns and are resolved at delivery time.
    direct: list[Message] = field(default_factory=list)
    #: Cached frozenset view of ``contacts`` for NodeApi construction.
    #: Contacts only ever grow (delivery-time ``update`` calls), so a
    #: length match proves the cache is current — the steady-state round
    #: rebuilds nothing.
    contacts_frozen: frozenset[NodeId] = frozenset()
    #: Without a delivery mask, a founding node's contacts are exactly the
    #: engine's cumulative broadcast-sender pool — shared as one
    #: frozenset across all such nodes, no per-node set at all.  The
    #: flag drops (and ``contacts`` takes over, seeded from the pool)
    #: the first time the node receives a direct message.
    contacts_shared: bool = False
    #: Recycled per-node NodeApi (round / contacts / outbox fields are
    #: refreshed each round before ``on_round`` runs).  The engine drains
    #: the outbox within the same round, so reuse is unobservable to a
    #: well-behaved protocol and saves two allocations per node-round.
    api: NodeApi | None = None

    @property
    def protocol(self) -> Protocol:
        return self.behaviour

    def contacts_view(self) -> frozenset[NodeId]:
        frozen = self.contacts_frozen
        if len(frozen) != len(self.contacts):
            frozen = self.contacts_frozen = frozenset(self.contacts)
        return frozen


class SyncNetwork:
    """A synchronous network of correct protocols and Byzantine actors."""

    def __init__(
        self,
        seed: int | None = 0,
        rushing: bool = False,
        membership: MembershipSchedule | None = None,
        measure_bytes: bool = False,
        clock: Callable[[], float] | None = None,
        bus: EventBus | None = None,
        spec: dict[str, Any] | None = None,
    ):
        self.seed = seed
        #: The run's RunSpec document, published on ``run-start`` (None
        #: for a network not built from a spec).
        self.spec = spec
        self._rng = make_rng(seed)
        self.rushing = rushing
        self.membership = membership or MembershipSchedule()
        #: The run's event plane.  Pass a shared bus to observe several
        #: networks on one stream; by default each network gets its own,
        #: pre-wired with a Metrics and a Trace subscriber (detach them
        #: via metrics.detach(bus) / trace.detach(bus) for a bare bus).
        self.bus = bus if bus is not None else EventBus()
        self.metrics = Metrics().attach(self.bus)
        self.trace = Trace().attach(self.bus)
        self.round: Round = 0
        #: When set, every logical send is also costed in wire bytes
        #: using the repro.net frame codec (see Metrics.bytes_total).
        self.measure_bytes = measure_bytes
        #: Optional monotonic-time source for per-phase engine timing
        #: (Metrics.engine_time_by_phase).  The simulation itself never
        #: reads a clock — timing is observability only, injected by
        #: benchmarks, so determinism is untouched.
        self._clock = clock
        self._nodes: dict[NodeId, _NodeState] = {}
        #: The columnar round plane (docs/model.md "Columnar delivery"):
        #: broadcasts stage into per-round struct-of-arrays columns, and
        #: recipients get counting views instead of message objects.
        self._plane = ColumnarPlane()
        #: The columns this round's broadcasts stage into, swapped for a
        #: fresh instance at each delivery.
        self._staging_cols = self._plane.new_round()
        #: Optional per-recipient delivery mask, ``None`` for the model's
        #: synchrony guarantee (everything staged is delivered).  A
        #: subclass that breaks the guarantee on purpose installs a
        #: callable here in its constructor, before any node registers;
        #: :meth:`_collect` states the contract.
        self._delivery_mask: (
            Callable[[NodeId, int], Sequence[bool] | None] | None
        ) = None
        #: Cumulative broadcast-sender pool: the shared contacts
        #: frozenset for founding nodes.
        self._contact_pool: frozenset[NodeId] = frozenset()
        #: Sorted alive-node lists keyed by byzantine flag, rebuilt only
        #: when the population changes (join / leave / removal).
        self._alive_cache: dict[bool, list[_NodeState]] = {}
        #: Per-topic emission sinks, snapshotted from the bus and
        #: rebuilt only when its version changes (see _refresh_sinks).
        self._bus_version = -1
        self._emit_round_start = None
        self._emit_round_end = None
        self._emit_send = None
        self._emit_deliver = None
        self._emit_phase = None
        self._emit_plane = None
        self._protocol_sink = None
        self._refresh_sinks()

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------
    def add_correct(self, node_id: NodeId, protocol: Protocol) -> None:
        """Register a correct node before (or during) the run."""
        self._register(node_id, protocol, byzantine=False)

    def add_byzantine(self, node_id: NodeId, strategy: ByzantineActor) -> None:
        """Register a Byzantine node before (or during) the run."""
        self._register(node_id, strategy, byzantine=True)

    def _register(self, node_id: NodeId, behaviour: Any, byzantine: bool) -> None:
        existing = self._nodes.get(node_id)
        if existing is not None:
            if existing.alive:
                raise ConfigurationError(f"duplicate node id {node_id}")
            # A departed id may rejoin (crash-recover churn): the node
            # comes back as a brand-new participant — fresh behaviour,
            # empty contacts, joiner handshake — its pre-crash state and
            # outputs are gone.
            del self._nodes[node_id]
        self._nodes[node_id] = _NodeState(
            node_id=node_id,
            behaviour=behaviour,
            byzantine=byzantine,
            joined_round=max(self.round + 1, 1),
            # Founding nodes see every broadcast round, so their
            # contacts are exactly the engine's cumulative sender pool;
            # joiners miss earlier rounds, and recipients of a masked
            # network may miss any row: both track contacts privately.
            contacts_shared=self._delivery_mask is None and self.round == 0,
        )
        self._alive_cache.clear()

    def remove(self, node_id: NodeId) -> None:
        """Forcibly remove a node (adversary-driven leave / crash)."""
        state = self._nodes.get(node_id)
        if state is not None and state.alive:
            state.alive = False
            state.left_round = self.round
            self._alive_cache.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> frozenset[NodeId]:
        return frozenset(self._nodes)

    @property
    def alive_ids(self) -> frozenset[NodeId]:
        return frozenset(nid for nid, s in self._nodes.items() if s.alive)

    @property
    def correct_ids(self) -> frozenset[NodeId]:
        return frozenset(
            nid for nid, s in self._nodes.items() if not s.byzantine
        )

    @property
    def byzantine_ids(self) -> frozenset[NodeId]:
        return frozenset(nid for nid, s in self._nodes.items() if s.byzantine)

    def protocol_of(self, node_id: NodeId) -> Protocol:
        state = self._nodes[node_id]
        if state.byzantine:
            raise ConfigurationError(f"node {node_id} is Byzantine")
        return state.protocol

    def protocols(self) -> dict[NodeId, Protocol]:
        """Map of correct node id -> protocol instance."""
        return {
            nid: s.protocol
            for nid, s in self._nodes.items()
            if not s.byzantine
        }

    def outputs(self) -> dict[NodeId, Any]:
        """Outputs of the correct nodes that have decided so far."""
        return {
            nid: s.protocol.output
            for nid, s in self._nodes.items()
            if not s.byzantine and s.protocol.halted
        }

    def all_correct_halted(self) -> bool:
        return all(
            s.protocol.halted
            for s in self._nodes.values()
            if not s.byzantine and s.alive
        )

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: int, until_all_halted: bool = True) -> int:
        """Run rounds until every live correct node halts (or the budget
        runs out).  Returns the number of the last executed round.

        With ``until_all_halted=False`` the engine always runs exactly
        ``max_rounds`` rounds (for non-terminating abstractions).  The
        run's last event is one ``run-end``, also when it raises (its
        ``error`` then says why, :func:`~repro.errors.failure_text`).
        """
        try:
            for _ in range(max_rounds):
                self.step()
                if until_all_halted and self.all_correct_halted():
                    break
            else:
                if until_all_halted and not self.all_correct_halted():
                    running = [
                        s.node_id
                        for s in self._nodes.values()
                        if not s.byzantine
                        and s.alive
                        and not s.protocol.halted
                    ]
                    raise RoundLimitExceeded(max_rounds, running)
        except Exception as exc:
            self._emit_end(failure_text(exc))
            raise
        self._emit_end(None)
        return self.round

    def _emit_end(self, error: str | None) -> None:
        """Publish the run's ``run-end`` event (once, last)."""
        sink = self.bus.sink(RunEnded.topic)
        if sink is None:
            return
        states = self._nodes.values()
        alive = tuple(s.node_id for s in states if s.alive)
        decisions = sum(
            1
            for s in states
            if not s.byzantine
            and s.protocol.halted
            and s.protocol.output is not None
        )
        sink(RunEnded(self.round, alive, len(states), decisions, error))

    def _refresh_sinks(self) -> None:
        """Re-snapshot the per-topic dispatchers.

        A ``None`` sink is the zero-cost contract: nobody listens, so
        the emission site skips constructing the event entirely.
        """
        bus = self.bus
        self._bus_version = bus.version
        self._emit_round_start = bus.sink(RoundStarted.topic)
        self._emit_round_end = bus.sink(RoundEnded.topic)
        self._emit_send = bus.sink(MessageSent.topic)
        self._emit_deliver = bus.sink(InboxDelivered.topic)
        self._emit_phase = bus.sink(EnginePhase.topic)
        self._emit_plane = bus.sink(PlaneStats.topic)
        sink = bus.sink(ProtocolEvent.topic)
        if sink is None:
            self._protocol_sink = None
        else:
            # *detail* is the kwargs dict ``NodeApi.emit`` — the only
            # caller — has just built: the event owns it, no copy.
            def protocol_sink(round_no, node, event, detail, _sink=sink):
                _sink(ProtocolEvent(round_no, node, event, detail))

            self._protocol_sink = protocol_sink

    def step(self) -> None:
        """Execute one synchronous round."""
        if self.bus.version != self._bus_version:
            self._refresh_sinks()
        self.round += 1
        if self.round == 1:
            run_start = self.bus.sink(RunStarted.topic)
            if run_start is not None:
                correct = sorted(self.correct_ids)
                byzantine = sorted(self.byzantine_ids)
                run_start(
                    RunStarted("sim", self.seed, self.spec, correct, byzantine)
                )
        if self._emit_round_start is not None:
            self._emit_round_start(RoundStarted(self.round))
        clock = self._clock
        t0 = clock() if clock else 0.0
        self._apply_membership()

        inboxes = self._collect()
        t1 = clock() if clock else 0.0

        correct_sends: list[tuple[NodeId, Send]] = []
        run_correct = self._run_correct
        get_inbox = inboxes.get
        for state in self._iter_alive(byzantine=False):
            sends = run_correct(
                state, get_inbox(state.node_id, _EMPTY_INBOX)
            )
            if sends:
                node_id = state.node_id
                correct_sends.extend([(node_id, s) for s in sends])
        t2 = clock() if clock else 0.0

        byz_sends: list[tuple[NodeId, Send]] = []
        byzantine_states = self._iter_alive(byzantine=True)
        if byzantine_states:
            if self.rushing:
                # Adversary strategies see per-send granularity.
                rushing_traffic = tuple(
                    (node_id, sub)
                    for node_id, send in correct_sends
                    for sub in send.expanded()
                )
            else:
                rushing_traffic = ()
            alive = self.alive_ids
            correct_alive = self.correct_ids & alive
            byzantine_alive = self.byzantine_ids & alive
            for state in byzantine_states:
                view = AdversaryView(
                    node_id=state.node_id,
                    round=self.round,
                    inbox=inboxes.get(state.node_id, _EMPTY_INBOX),
                    all_nodes=alive,
                    correct_nodes=correct_alive,
                    byzantine_nodes=byzantine_alive,
                    rng=self._rng,
                    correct_traffic=rushing_traffic,
                )
                for send in state.behaviour.on_round(view):
                    byz_sends.append((state.node_id, send))
        t3 = clock() if clock else 0.0

        self._stage(correct_sends)
        self._stage(byz_sends)
        emit_phase = self._emit_phase
        if clock and emit_phase is not None:
            t4 = clock()
            round_no = self.round
            emit_phase(EnginePhase(round_no, "deliver", t1 - t0))
            emit_phase(EnginePhase(round_no, "correct", t2 - t1))
            emit_phase(EnginePhase(round_no, "adversary", t3 - t2))
            emit_phase(EnginePhase(round_no, "stage", t4 - t3))
        emit_plane = self._emit_plane
        if emit_plane is not None:
            plane = self._plane
            emit_plane(
                PlaneStats(
                    self.round,
                    plane.payload_intern_hits,
                    plane.unique_payloads,
                    plane.messages_materialized,
                )
            )
        if self._emit_round_end is not None:
            self._emit_round_end(RoundEnded(self.round))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _iter_alive(self, byzantine: bool) -> list[_NodeState]:
        # Deterministic order: ascending node id.  The sorted list is
        # cached until the population changes (register / remove), so
        # the steady-state round pays no per-round sort.
        cached = self._alive_cache.get(byzantine)
        if cached is None:
            cached = sorted(
                (
                    s
                    for s in self._nodes.values()
                    if s.alive and s.byzantine == byzantine
                ),
                key=lambda s: s.node_id,
            )
            self._alive_cache[byzantine] = cached
        return cached

    def _apply_membership(self) -> None:
        for spec in self.membership.joins_at(self.round):
            behaviour = spec.factory()
            self._register(spec.node_id, behaviour, byzantine=spec.byzantine)
            # _register sets joined_round to round+1; fix to this round.
            self._nodes[spec.node_id].joined_round = self.round
        for spec in self.membership.leaves_at(self.round):
            self.remove(spec.node_id)

    def _collect(self) -> dict[NodeId, Inbox]:
        """Deliver the previous round's traffic: row views over columns.

        The broadcast recipient set is resolved *here* — after this
        round's membership changes — so a node joining at round ``r + 1``
        receives the round-``r`` broadcasts (the model's "reaches every
        node, including ones it has never heard of").  The round's
        broadcasts live in frozen struct-of-arrays columns: every
        recipient without direct messages shares one
        :class:`ColumnarIndex` view, and contact tracking is one
        cumulative pool update per round instead of a per-node set
        union.  A direct message repeating one of the round's
        broadcasts, or an earlier direct to the same node, is dropped.

        Each fresh direct message becomes one row of the same columns,
        past the broadcasts, once however many queues hold it.  Direct
        queues are deduplicated and indexed once per *recipient group*
        — the recipients whose queues hold the same message objects in
        the same order, which is what a multi-recipient row produces —
        and a group shares one inbox: the row view of the broadcasts
        plus its direct rows.  Every inbox is a read-only view (the
        shared-index invariant): no recipient may mutate what it is
        handed.  The ``deliver`` event carries the recipient's inbox; a
        subscriber that iterates it builds each broadcast row once per
        round.

        The delivery mask, when one is installed, is asked once per
        alive recipient with at least one row, in ``_nodes`` iteration
        order, as ``mask(recipient, rows)``: the rows are the round's
        broadcasts in staging order followed by the recipient's
        deduplicated direct messages.  ``None`` leaves the recipient
        untouched, on the shared inbox or its group's; otherwise the
        answer is one keep/drop flag per row, and the recipient leaves
        the shared structures for a private inbox of the kept messages,
        learns only the kept senders as contacts, and — when nothing is
        kept — gets no inbox and no ``deliver`` event.  The mask sees
        row counts, not rows, and can therefore mutate nothing.
        """
        cols = self._staging_cols
        self._staging_cols = self._plane.new_round()
        broadcast_senders: frozenset[NodeId] = frozenset()
        shared_inbox = None
        if len(cols):
            # The one inbox of every recipient that gets exactly the
            # round's broadcasts.
            shared_inbox = Inbox(index=ColumnarIndex(cols))
            broadcast_senders = shared_inbox.index.all_senders
            if not broadcast_senders <= self._contact_pool:
                self._contact_pool = self._contact_pool | broadcast_senders

        #: Recipient groups: every recipient whose direct queue holds
        #: the same messages in the same order shares one ``(queue,
        #: inbox)`` entry.  A direct row puts one Message object in many
        #: queues, so an equivocator round has two or three groups, not
        #: one inbox per node.  Bucketed by (length, first id, last id)
        #: and confirmed by list equality, which short-circuits on
        #: identity per element; the entry keeps its queue, so the ids
        #: in the bucket key stay pinned.
        groups: dict[tuple[int, int, int], list[tuple]] = {}
        #: message -> its direct row, or -1 when it repeats a broadcast.
        rows_of: dict[Message, int] = {}
        inboxes: dict[NodeId, Inbox] = {}
        round_no = self.round
        emit_deliver = self._emit_deliver
        pool = self._contact_pool
        mask = self._delivery_mask
        for state in self._nodes.values():
            direct = state.direct
            if direct:
                state.direct = []
            if not state.alive:
                continue
            inbox = shared_inbox
            if direct:
                key = (len(direct), id(direct[0]), id(direct[-1]))
                bucket = groups.setdefault(key, [])
                for group in bucket:
                    if group[0] == direct:
                        break
                else:
                    rows = []
                    for message in direct:
                        row = rows_of.get(message)
                        if row is None:
                            row = rows_of[message] = (
                                -1
                                if cols.contains_message(message)
                                else cols.add_direct(message)
                            )
                        if row >= 0:
                            rows.append(row)
                    if rows:
                        # A value queued twice is one row.
                        rows = cols.rows() + list(dict.fromkeys(rows))
                        inbox = Inbox(index=ColumnarIndex(cols, rows))
                    group = (direct, inbox)
                    bucket.append(group)
                inbox = group[1]
            if inbox is None:
                continue
            verdict = None if mask is None else mask(state.node_id, len(inbox))
            if verdict is not None:
                if len(verdict) != len(inbox):
                    raise ConfigurationError(
                        f"delivery mask answered {len(verdict)} flags"
                        f" for the {len(inbox)} rows of node {state.node_id}"
                    )
                kept = tuple(compress(inbox, verdict))
                if not kept:
                    continue
                inbox = Inbox(kept)
                state.contacts.update(m.sender for m in kept)
            elif inbox is not shared_inbox:
                if state.contacts_shared:
                    state.contacts_shared = False
                    state.contacts = set(pool)
                state.contacts.update(inbox.index.all_senders)
            elif not state.contacts_shared:
                state.contacts.update(broadcast_senders)
            if emit_deliver is not None:
                emit_deliver(InboxDelivered(round_no, state.node_id, inbox))
            inboxes[state.node_id] = inbox
        return inboxes

    def _run_correct(
        self, state: _NodeState, inbox: Inbox
    ) -> list[Send] | tuple[Send, ...]:
        protocol = state.behaviour
        if protocol.halted:
            return ()
        api = state.api
        if api is None:
            api = state.api = NodeApi(
                state.node_id,
                self.round,
                self._contact_pool
                if state.contacts_shared
                else state.contacts_view(),
                Outbox(),
                self._protocol_sink,
            )
        else:
            api.round = self.round
            # Re-point at the current protocol sink: subscriptions may
            # have changed between rounds (None = nobody listens).
            api._trace_sink = self._protocol_sink
            if state.contacts_shared:
                # Founding nodes alias the engine's cumulative
                # broadcast-sender pool — O(1) per node.
                api._known_contacts = self._contact_pool
            else:
                # contacts_view() inlined: runs once per node per round.
                frozen = state.contacts_frozen
                if len(frozen) != len(state.contacts):
                    frozen = state.contacts_frozen = frozenset(
                        state.contacts
                    )
                api._known_contacts = frozen
        outbox = api._outbox
        if outbox.sends:
            # A fresh list, not clear(): last round's sends were already
            # consumed by _stage, but anything still holding that list
            # must not see it emptied under its feet.
            outbox.sends = []
        protocol.on_round(api, inbox)
        return outbox.sends

    def _wire_cost(self, sender: NodeId, send: Send) -> tuple[int, ...]:
        """Each payload's size as a repro.net frame (``measure_bytes``)."""
        from repro.net.wire import encode_frame

        costs = []
        for payload in send.payloads:
            try:
                frame = encode_frame(
                    self.round, sender, send.kind, payload, send.instance
                )
            except Exception:
                # Non-wire-representable payloads (test doubles etc.):
                # fall back to a repr-based estimate rather than failing
                # the run.
                frame = repr((send.kind, payload, send.instance))
            costs.append(len(frame))
        return tuple(costs)

    def _stage(self, sends: list[tuple[NodeId, Send]]) -> None:
        """Queue send rows for delivery at the next round, publishing
        one ``send`` event per row.

        Broadcast recipients are resolved at delivery time: a
        one-payload broadcast row is four list appends, a longer one
        one interned segment per sender.  A direct row is staged for
        each recipient that exists and is alive now: it stamps one
        Message object, which every such recipient's queue shares.
        """
        round_no = self.round
        emit_send = self._emit_send
        nodes = self._nodes
        #: Recipient tuple -> (alive recipients' queues, per-recipient
        #: staged flags or None when all staged), for this call.
        fanouts: dict[tuple, tuple] = {}
        cols = self._staging_cols
        plane = self._plane
        wire_cost = self._wire_cost if self.measure_bytes else None
        for sender, send in sends:
            payloads = send.payloads
            dests = send.dests
            if dests is None:
                if len(payloads) == 1:
                    staged = cols.stage(
                        sender, send.kind, payloads[0], send.instance
                    )
                    flags = None
                else:
                    staged, flags = cols.stage_batch(
                        sender,
                        plane.intern_batch(send.kind, payloads, send.instance),
                    )
            else:
                # One stamp for the whole row: every alive recipient
                # queues the same Message object, which is what lets
                # delivery dedup and index it once per recipient group.
                message = send.stamped(sender)
                resolved = fanouts.get(dests)
                if resolved is None:
                    # Liveness cannot change while staging, so a
                    # recipient tuple resolves to its queues once.
                    queues = []
                    alive = []
                    for dest in dests:
                        state = nodes.get(dest)
                        ok = state is not None and state.alive
                        if ok:
                            queues.append(state.direct)
                        alive.append(ok)
                    resolved = fanouts[dests] = (
                        queues,
                        None if len(queues) == len(dests) else tuple(alive),
                    )
                queues, flags = resolved
                for queue in queues:
                    queue.append(message)
                staged = len(queues)
            if emit_send is not None:
                emit_send(
                    MessageSent(
                        round_no,
                        sender,
                        send.kind,
                        payloads,
                        send.instance,
                        dests,
                        () if wire_cost is None else wire_cost(sender, send),
                        staged,
                        flags,
                    )
                )
