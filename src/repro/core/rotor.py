"""Rotor-coordinator in the id-only model (Algorithm 2).

The rotor's job is classically trivial: with known ``f`` and consecutive
ids, rotate through coordinators ``0 .. f``; one of ``f + 1`` must be
correct.  With unknown ``n``/``f`` and sparse ids it is the paper's main
technical hurdle.  The algorithm maintains a *candidate set* ``C_v`` via
reliable-broadcast-style echo voting, selects ``C_v[r mod |C_v|]`` as the
round-``r`` coordinator, and terminates when it would select the same node
twice.  Theorem 6.3: for ``n > 3f`` every correct node terminates within
``O(n)`` rounds, having witnessed a *good round* — a round in which every
correct node selected the same, correct coordinator and accepts its opinion
in the following round.

Three layers, composed bottom-up:

* :class:`CandidateSet` — the reliably-broadcast, monotonically growing,
  id-ordered set ``C_v``;
* :class:`RotorCursor` — the round counter ``r``, the selected set
  ``S_v``, and the ``C_v[r mod |C_v|]`` selection rule.  Parallel
  consensus runs one cursor per instance over a single shared candidate
  set;
* :class:`RotorCore` — one candidate set plus one cursor, the shape
  Algorithm 3 embeds (one rotor step per 5-round phase);
* :class:`RotorCoordinator` — the standalone protocol: one rotor step per
  round, terminating on the first repeated selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.quorum import EchoVoting, ViewTracker, sorted_tags
from repro.sim.inbox import Inbox
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId, Round

KIND_INIT = "init"
KIND_ECHO = "echo"
KIND_OPINION = "opinion"


@dataclass(frozen=True)
class RotorStep:
    """Outcome of one rotor round."""

    #: The coordinator selected this step (None only if no candidates yet).
    coordinator: NodeId | None
    #: True when the coordinator was selected before — the rotor's
    #: termination condition (standalone rotor breaks; consensus ignores).
    repeat: bool


class CandidateSet:
    """The candidate-coordinator set ``C_v``, maintained via echo voting.

    Initialization mirrors Algorithm 1: every node broadcasts ``init`` in
    round one, every node echoes every announcer in round two, and from
    then on ids are echoed/accepted at the ``n_v/3`` / ``2n_v/3``
    thresholds.  The set only ever grows and stays sorted by id.
    """

    __slots__ = ("candidates", "voting", "instance")

    def __init__(self, instance: Hashable = None) -> None:
        #: Sorted accepted tags; possibly a round-shared list, so it is
        #: replaced, never mutated.
        self.candidates: list[NodeId] = []
        self.voting = EchoVoting()
        #: Instance namespace for the wire messages (total ordering runs
        #: one candidate set per consensus instance).
        self.instance = instance

    def announce(self, api: NodeApi) -> None:
        """Round 1: broadcast willingness to coordinate."""
        api.broadcast(KIND_INIT, instance=self.instance)

    def echo_inits(self, api: NodeApi, inbox: Inbox) -> None:
        """Round 2: echo every node that announced itself.

        The sorted announcer tuple is derived once on the round's
        shared index, so every node broadcasts the *same* tuple object
        — one interned batch for the whole echo storm.
        """
        instance = self.instance
        announcers = inbox.derive(
            ("rotor-announcers", instance),
            lambda idx: tuple(
                sorted(idx.sender_set(KIND_INIT, ..., instance))
            ),
        )
        if announcers:
            api.broadcast_many(KIND_ECHO, announcers, instance=instance)

    def absorb(self, inbox: Inbox) -> None:
        """Accumulate echo observations from a real round's inbox.

        Rides the shared quorum-tally plane: the per-candidate sender
        sets are grouped once on the round's shared index and adopted
        here without copying (see :meth:`EchoVoting.absorb_inbox`).
        """
        self.voting.absorb_inbox(inbox, KIND_ECHO, instance=self.instance)

    def evaluate(
        self, api: NodeApi, n_v: int, broadcast: bool = True
    ) -> tuple[NodeId, ...]:
        """Apply thresholds: accept full quorums, (re-)echo sub-quorum ids.

        Returns the ids due an echo — the decision's (round-shared)
        tuple, unchanged, so every node hands ``broadcast_many`` the
        same object; with ``broadcast=False`` the caller is responsible
        for sending them (Algorithm 2 defers the broadcast of ``B_v`` to
        the end of the round and skips it on termination).
        """
        decision = self.voting.evaluate(n_v, api.round)
        if decision.newly_accepted:
            # candidates is always sorted_tags(accepted): adopt the
            # shared sorted list of a shared decision wholesale, sort a
            # private one.  Neither list is ever mutated.
            delta = decision.shared_delta
            if delta is not None:
                self.candidates = delta.sorted_merged(
                    decision.decided_round
                )
            else:
                self.candidates = sorted_tags(self.voting.accepted)
        if broadcast and decision.echo:
            api.broadcast_many(
                KIND_ECHO, decision.echo, instance=self.instance
            )
        return decision.echo

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.voting.accepted


class RotorCursor:
    """Selection state over a candidate set: ``r``, ``S_v``, and the
    ``C_v[r mod |C_v|]`` rule."""

    __slots__ = ("rotor_round", "selected", "selection_order")

    def __init__(self) -> None:
        self.rotor_round: int = 0
        self.selected: set[NodeId] = set()
        self.selection_order: list[NodeId] = []

    def select(
        self,
        api: NodeApi,
        candidates: list[NodeId],
        opinion: Hashable,
        instance: Hashable = None,
        allow_repeat: bool = False,
        opinion_kind: str = KIND_OPINION,
    ) -> RotorStep:
        """Pick this step's coordinator; broadcast our opinion if selected.

        ``allow_repeat=True`` keeps the rotor cycling past its natural
        termination point (re-selections behave like first selections);
        consensus uses this because its own termination condition — not
        the rotor's — ends the protocol, and stragglers may need
        coordinators after the rotor would have stopped.
        """
        if not candidates:
            # Cannot happen for n > 3f after initialization (every correct
            # id is accepted before the first step); guard for hostile runs.
            self.rotor_round += 1
            return RotorStep(coordinator=None, repeat=False)

        coordinator = candidates[self.rotor_round % len(candidates)]
        repeat = coordinator in self.selected
        if not repeat or allow_repeat:
            self.selected.add(coordinator)
            if not repeat:
                self.selection_order.append(coordinator)
            if coordinator == api.node_id:
                api.broadcast(opinion_kind, opinion, instance=instance)
                api.emit(
                    "rotor-own-opinion", opinion=opinion, instance=instance
                )
        api.emit(
            "rotor-select",
            coordinator=coordinator,
            repeat=repeat,
            rotor_round=self.rotor_round,
            candidates=len(candidates),
            instance=instance,
        )
        self.rotor_round += 1
        return RotorStep(coordinator=coordinator, repeat=repeat)


class RotorCore:
    """One candidate set plus one cursor: the embeddable rotor.

    Usage pattern (one *rotor step* may span several real rounds, as in
    consensus where steps are 5 real rounds apart):

    * round 1: :meth:`announce` — broadcast ``init``;
    * round 2: :meth:`echo_inits` — echo every ``init`` sender;
    * every real round from 3 on: :meth:`absorb` the inbox (echoes
      accumulate between steps);
    * at each rotor step: :meth:`step` with the current ``n_v`` and this
      node's current opinion — updates ``C_v``/``S_v``, broadcasts pending
      echoes and (when selected) the own opinion, returns the coordinator.

    The opinion broadcast by the selected coordinator arrives one real
    round later; callers read it from that round's inbox via
    :meth:`opinion_from`.
    """

    __slots__ = ("candidate_set", "cursor")

    def __init__(self) -> None:
        self.candidate_set = CandidateSet()
        self.cursor = RotorCursor()

    # -- delegation -------------------------------------------------------
    def announce(self, api: NodeApi) -> None:
        self.candidate_set.announce(api)

    def echo_inits(self, api: NodeApi, inbox: Inbox) -> None:
        self.candidate_set.echo_inits(api, inbox)

    def absorb(self, inbox: Inbox) -> None:
        self.candidate_set.absorb(inbox)

    @property
    def candidates(self) -> list[NodeId]:
        return self.candidate_set.candidates

    @property
    def selected(self) -> set[NodeId]:
        return self.cursor.selected

    @property
    def selection_order(self) -> list[NodeId]:
        return self.cursor.selection_order

    def step(
        self,
        api: NodeApi,
        n_v: int,
        opinion: Hashable,
        allow_repeat: bool = False,
    ) -> RotorStep:
        """Execute one rotor round (Alg 2 loop body)."""
        # Echo/accept before selecting (pseudocode line order), but defer
        # the echo broadcast: a terminating step breaks before sending B_v.
        echoes = self.candidate_set.evaluate(api, n_v, broadcast=False)
        step = self.cursor.select(
            api,
            self.candidate_set.candidates,
            opinion,
            allow_repeat=allow_repeat,
        )
        if (not step.repeat or allow_repeat) and echoes:
            api.broadcast_many(
                KIND_ECHO, echoes, instance=self.candidate_set.instance
            )
        return step

    @staticmethod
    def opinion_from(
        inbox: Inbox, coordinator: NodeId | None, instance: Hashable = None
    ):
        """The opinion the given coordinator sent us this round, or None.

        Returns the payload of the first ``opinion`` message from
        *coordinator* (a correct coordinator sends exactly one).
        """
        if coordinator is None:
            return None
        # The sender bucket comes from the inbox's (round-shared) index;
        # only the coordinator's few messages are scanned per caller.
        for message in inbox.from_sender(coordinator):
            if message.matches(KIND_OPINION, instance=instance):
                return message.payload
        return None


class RotorCoordinator(Protocol):
    """Standalone rotor-coordinator: one rotor step per round.

    ``opinion`` is this node's opinion ``o_v``, broadcast if it is ever
    selected coordinator.  The protocol decides (with its final accepted
    opinion, possibly None) when it would select the same coordinator a
    second time.

    Attributes:
        accepted_opinions: list of ``(round, coordinator, opinion)``
            accepted at line ``rc-opnac`` — the raw material for checking
            Theorem 6.3's good-round guarantee.
    """

    def __init__(self, opinion: Hashable):
        super().__init__()
        self.opinion = opinion
        self.core = RotorCore()
        self.tracker = ViewTracker()
        self.previous_coordinator: NodeId | None = None
        self.accepted_opinions: list[tuple[Round, NodeId, Hashable]] = []

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        self.tracker.observe(inbox)
        if api.round == 1:
            self.core.announce(api)
            return
        if api.round == 2:
            self.core.echo_inits(api, inbox)
            return

        self.core.absorb(inbox)
        # Accept the opinion of the coordinator selected last round
        # (line rc-opnac) before this round's selection.
        opinion = self.core.opinion_from(inbox, self.previous_coordinator)
        if opinion is not None:
            self.accepted_opinions.append(
                (api.round, self.previous_coordinator, opinion)
            )
            api.emit(
                "accept-opinion",
                coordinator=self.previous_coordinator,
                opinion=opinion,
            )
        step = self.core.step(api, self.tracker.n_v, self.opinion)
        if step.repeat:
            self.decide(api, opinion)
            return
        self.previous_coordinator = step.coordinator

    @property
    def selection_order(self) -> list[NodeId]:
        return self.core.selection_order
