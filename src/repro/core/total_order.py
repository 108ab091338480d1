"""Total ordering of events in a dynamic network (Algorithm 6).

Nodes may join and leave (subject to ``n > 3f`` per round).  Each node
maintains a participant set ``S`` via ``present``/``absent`` announcements,
witnesses events, and — every round — runs one parallel-consensus machine
over the events broadcast in the previous round, tagged with the round
number.  A round ``r'`` becomes *final* once ``r - r' > 5|S^{r'}|/2 + 2``
(enough rounds for its machine to have terminated everywhere); the output
chain is the concatenation of final machines' agreed events in round
order.  Theorem 11.1: the chains satisfy

* **chain-prefix** — any two correct nodes' chains are prefixes of one
  another (we additionally require the machine to have locally terminated
  before treating a round as final — a conservative strengthening that
  keeps the chain correct even if an adversary stretches a machine past
  the paper's round budget);
* **chain-growth** — the chain keeps growing while correct nodes submit
  events.

Joins follow the paper's handshake: broadcast ``present``; every member
replies ``(ack, r)`` and adds the joiner to ``S``; the joiner adopts the
majority round number and initializes ``S`` to the ack senders.  A leaver
broadcasts ``absent``, keeps participating in its outstanding machines,
and halts when they terminate.

Late joiners have no history: their chain covers machines from their join
round on.  The chain-prefix verdict therefore compares nodes per
machine round (see ``repro.analysis.verdicts``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable

from repro.core.parallel_consensus import (
    ParallelConsensusMachine,
    namespace_view,
)
from repro.sim.inbox import Inbox
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId, Round

KIND_PRESENT = "present"
KIND_ABSENT = "absent"
KIND_ACK = "ack"
KIND_EVENT = "event"

#: An entry of the output chain: (round, event source, event).
ChainEntry = tuple[int, NodeId, Hashable]

#: Supplies the event this node witnesses at a local round (None = none).
EventSource = Callable[[int], Hashable | None]


def events_from_dict(plan: dict[int, Hashable]) -> EventSource:
    """Adapt a ``{local_round: event}`` plan into an event source."""

    def source(local_round: int) -> Hashable | None:
        return plan.get(local_round)

    return source


class TotalOrderNode(Protocol):
    """One participant of the dynamic total-ordering protocol.

    Args:
        event_source: callable mapping this node's local round number to
            the event it witnesses then (or None).  Use
            :func:`events_from_dict` for scripted scenarios.
        seed: True for the initial population (they skip the join
            handshake and bootstrap ``S`` from the round-one ``present``
            storm); False for nodes added to the network mid-run.
        leave_at: local round at which to start the leave protocol
            (None = stay forever).

    Attributes:
        chain: the current output chain (list of ``(round, source,
            event)`` entries), append-only.
        local_round: the node's own round counter ``r`` (seeded nodes
            count from 1; joiners adopt the majority ``ack`` value).
    """

    def __init__(
        self,
        event_source: EventSource | None = None,
        seed: bool = True,
        leave_at: int | None = None,
    ):
        super().__init__()
        self.event_source = event_source or (lambda _r: None)
        self.seed = seed
        self.leave_at = leave_at
        self.local_round: int | None = None
        self.participants: set[NodeId] = set()  # the paper's S
        #: machine round -> (machine, |S| snapshot at start)
        self.machines: dict[int, tuple[ParallelConsensusMachine, int]] = {}
        self.chain: list[ChainEntry] = []
        self.final_through: int = 0  # the paper's R
        self.joined: bool = False
        self.leaving: bool = False
        self._acks_due: list[NodeId] = []
        #: Joiners admitted to S once they can actually participate
        #: (present landed at round X -> they run their first machine at
        #: X + 3); maps due-round -> joiner ids.
        self._admissions: dict[Round, list[NodeId]] = {}
        self._join_wait: int = 0

    # ------------------------------------------------------------------
    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        if not self.joined:
            self._handle_joining(api, inbox)
            return

        self.local_round += 1
        self._maintain_membership(api, inbox)
        self._collect_and_start(api, inbox)
        self._witness_event(api)
        self._run_machines(api, inbox)
        self._advance_finality(api)
        self._maybe_leave(api)

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------
    def _handle_joining(self, api: NodeApi, inbox: Inbox) -> None:
        if self._join_wait == 0:
            api.broadcast(KIND_PRESENT)
            self._join_wait = 1
            return
        if self.seed:
            # Bootstrap: the whole initial population announced together;
            # S is everyone who said present, the round counter starts at 1.
            self.participants = set(inbox.senders(KIND_PRESENT))
            self.participants.add(api.node_id)
            self.local_round = 0
            self.joined = True
            self._emit_join(api, mode="seed")
            return
        # Mid-run joiner: wait one round for present to land, then read
        # the (ack, r) replies.
        if self._join_wait == 1:
            self._join_wait = 2
            return
        acks = Counter(
            m.payload for m in inbox.filter(KIND_ACK)
            if isinstance(m.payload, int)
        )
        if not acks:
            # Nobody answered yet (message still in flight); keep waiting.
            return
        majority_round, _count = acks.most_common(1)[0]
        # The paper's r = r0 + 1; our main loop pre-increments, so after
        # the next round's increment we sit at r0 + 2 — exactly where the
        # established members are by then.
        self.local_round = majority_round + 1
        self.participants = set(inbox.senders(KIND_ACK))
        self.participants.add(api.node_id)
        # Membership announcements landing in the same inbox as our acks
        # must not be lost: leavers are removed immediately, concurrent
        # joiners queued for admission like anywhere else.
        for leaver in inbox.senders(KIND_ABSENT):
            self.participants.discard(leaver)
        for joiner in sorted(inbox.senders(KIND_PRESENT)):
            if joiner != api.node_id:
                self._admissions.setdefault(api.round + 3, []).append(joiner)
        # Finality starts at our first machine (next local round);
        # earlier rounds are history we never saw.
        self.final_through = self.local_round
        self.joined = True
        self._emit_join(api, mode="handshake", adopted_round=majority_round)

    def _emit_join(self, api: NodeApi, **detail) -> None:
        api.emit(
            "to-join",
            **detail,
            members=len(self.participants),
            local_round=self.local_round,
            final_through=self.final_through,
        )

    # ------------------------------------------------------------------
    # Membership bookkeeping
    # ------------------------------------------------------------------
    def _maintain_membership(self, api: NodeApi, inbox: Inbox) -> None:
        for ack_dest in self._acks_due:
            if api.knows(ack_dest):
                api.send(ack_dest, KIND_ACK, self.local_round)
        self._acks_due = []
        for joiner in sorted(inbox.senders(KIND_PRESENT)):
            if joiner == api.node_id:
                continue
            self._acks_due.append(joiner)
            # Admit to S when the joiner's first own machine starts: the
            # joiner learns S and r three rounds after its `present`
            # landed here, so machines snapshotting S before then must
            # not count it.
            self._admissions.setdefault(api.round + 3, []).append(joiner)
        for due in [r for r in self._admissions if r <= api.round]:
            self.participants.update(self._admissions.pop(due))
        for leaver in inbox.senders(KIND_ABSENT):
            self.participants.discard(leaver)

    # ------------------------------------------------------------------
    # Events and machines
    # ------------------------------------------------------------------
    def _collect_and_start(self, api: NodeApi, inbox: Inbox) -> None:
        """Gather events broadcast last round; start this round's machine."""
        if self.leaving:
            return
        machine_round = self.local_round
        machine = ParallelConsensusMachine(
            start_round=api.round + 1,
            membership=frozenset(self.participants),
            base_tag=("to", machine_round),
        )
        for message in inbox.filter(KIND_EVENT):
            payload = message.payload
            if not isinstance(payload, tuple) or len(payload) != 2:
                continue
            event, stamped_round = payload
            if stamped_round != self.local_round - 1:
                continue  # stale or future-stamped event
            if message.sender not in self.participants:
                continue
            machine.submit(message.sender, event)
        self.machines[machine_round] = (machine, len(self.participants))
        api.emit(
            "to-machine-start",
            machine=machine_round,
            members=len(self.participants),
        )

    def _witness_event(self, api: NodeApi) -> None:
        if self.leaving:
            return
        event = self.event_source(self.local_round)
        if event is not None:
            api.broadcast(KIND_EVENT, (event, self.local_round))
            api.emit(
                "to-event", payload=event, local_round=self.local_round
            )

    def _run_machines(self, api: NodeApi, inbox: Inbox) -> None:
        """Step every machine somebody could tell from an unstepped one.

        A node carries its whole finality window of machines, most of
        them long finished; a quiescent one is left alone (stepping it
        is provably a no-op, see
        :meth:`ParallelConsensusMachine.quiescent`) and woken the round
        anybody addresses its namespace.  Silence is judged on the
        inbox as delivered, before any machine restricts it to its
        membership.  ``machines`` is filled in ascending machine round
        and only ever popped, so its own order is the stepping order.
        """
        spoken = namespace_view(inbox)
        round_no = api.round
        for machine, _size in self.machines.values():
            if not machine.quiescent(round_no, spoken):
                machine.on_round(api, inbox)

    # ------------------------------------------------------------------
    # Finality and the output chain
    # ------------------------------------------------------------------
    def _is_final(self, machine_round: int) -> bool:
        machine, size = self.machines[machine_round]
        time_final = 2 * (self.local_round - machine_round) > 5 * size + 4
        return time_final and machine.idle()

    def _advance_finality(self, api: NodeApi) -> None:
        advanced = False
        appended: list[ChainEntry] = []
        while (self.final_through + 1) in self.machines and self._is_final(
            self.final_through + 1
        ):
            self.final_through += 1
            machine, _size = self.machines.pop(self.final_through)
            for source, value in machine.output_pairs():
                entry = (self.final_through, source, value)
                self.chain.append(entry)
                appended.append(entry)
            advanced = True
        if advanced:
            api.emit(
                "to-chain",
                final_through=self.final_through,
                length=len(self.chain),
                entries=appended,
            )

    # ------------------------------------------------------------------
    # Leaving
    # ------------------------------------------------------------------
    def _maybe_leave(self, api: NodeApi) -> None:
        wants_out = self.wants_to_leave or (
            self.leave_at is not None and self.local_round >= self.leave_at
        )
        if wants_out and not self.leaving:
            self.leaving = True
            api.broadcast(KIND_ABSENT)
            api.emit("to-leave", local_round=self.local_round)
        if self.leaving and all(
            machine.idle() for machine, _ in self.machines.values()
        ):
            self.decide(api, tuple(self.chain))
