"""Committee-sampled agreement with implicit outcome adoption.

The classical protocols here all-broadcast every round, so a decision
costs O(n²) messages.  The sampled variants cut that to O(n + c²) for a
committee of size ``c = Θ(polylog n)`` (:mod:`repro.core.committee`):

1. **Hello round** — every node broadcasts once, establishing the
   common id-only view the sampler hashes over (and seeding everyone's
   contact set, which the gossip fallback's direct replies need).
2. **Committee consensus** — the ``c`` sampled members run the existing
   Algorithm-3 / Algorithm-5 machinery restricted to the committee
   (membership = the sampled set, riding the quorum-tally plane's
   shared ``restricted_to`` views).  Non-members send nothing and do
   O(1) work per round.
3. **Implicit agreement** — each member broadcasts its decision once;
   every other node adopts a value as soon as ``≥ |C|/3`` committee
   members announced it.  With fewer than ``|C|/3`` Byzantine members
   (whp, by the sampler's Chernoff sizing) any such quorum contains a
   correct member, and committee agreement makes two conflicting
   quorums impossible — so adoption needs no second broadcast wave.
4. **Gossip fallback** — a node that joins after the hello round never
   saw the committee, so it broadcasts a ``query``; decided nodes
   linger a few rounds answering with direct ``outcome`` replies, and
   the joiner adopts on a two-thirds quorum of distinct responders.
   Best-effort by design: it is sound while correct deciders are still
   lingering (≥ 2/3 of responders are then correct), and a joiner that
   arrives after everyone halted simply never decides.

Grounded in Kumar & Molla, "Sublinear Message Bounds of Authenticated
Implicit Byzantine Agreement", and Augustine et al., "Scalable and
Secure Computation Among Strangers" (PAPERS.md); the committee-internal
agreement is unchanged from the paper's id-only algorithms.

The hello-round view is assumed common (one synchronous all-broadcast
round): the sampler is deterministic, so identical views give identical
committees.  Under message loss the views can diverge and this variant
is not supported — run the full-broadcast protocols instead.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.committee import sample_committee
from repro.core.consensus import PHASE_LENGTH, EarlyConsensus
from repro.core.parallel_consensus import ParallelConsensusMachine
from repro.core.quorum import (
    ViewTracker,
    at_least_third,
    at_least_two_thirds,
)
from repro.sim.inbox import Inbox
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId

KIND_HELLO = "hello"
KIND_DECISION = "decision"
KIND_QUERY = "query"
KIND_OUTCOME = "outcome"

#: Init rounds of the sampled variants: hello; freeze + sample (+ the
#: members' rotor init broadcast); members' rotor echo.  One more than
#: the classical protocols because sampling needs the frozen view first.
SAMPLED_INIT_ROUNDS = 3
#: A joiner re-broadcasts its query every this many rounds until adopted.
QUERY_INTERVAL = 3

#: "No outcome yet" — distinct from None, which is a decidable value.
_UNSET = object()


def shared_committee(
    inbox: Inbox, seed: int | None, size: int | None
) -> frozenset[NodeId]:
    """The committee over this round's sender view, sampled once.

    Memoized on the round's shared index: two thousand recipients of
    the hello broadcasts hash-rank the view a single time between them.
    """
    return inbox.derive(
        ("committee", seed, size),
        lambda idx: sample_committee(idx.all_senders, seed=seed, size=size),
    )


class OutcomeGossip:
    """One node's dissemination state: announce, adopt, linger, query.

    Not a protocol — the sampled protocols own one and drive it.  The
    attribute set is fenced out of other protocol code by lint rule
    R406; everything protocols need goes through the methods.
    """

    __slots__ = (
        "linger",
        "outcome",
        "linger_left",
        "decision_votes",
        "outcome_votes",
        "joined_at",
        "last_query",
    )

    def __init__(self, linger: int):
        self.linger = linger
        self.outcome: Hashable = _UNSET
        self.linger_left = 0
        #: value -> committee members seen announcing it (cumulative —
        #: members decide and announce across nearby rounds, not one).
        #: Each entry is the round-shared frozenset, adopted by
        #: reference and replaced copy-on-write, never mutated.
        self.decision_votes: dict[Hashable, frozenset[NodeId]] = {}
        #: value -> responders to our joiner query (cumulative).
        self.outcome_votes: dict[Hashable, set[NodeId]] = {}
        self.joined_at: int | None = None
        self.last_query: int | None = None

    @property
    def decided(self) -> bool:
        return self.outcome is not _UNSET

    # ------------------------------------------------------------------
    def ready(self, api: NodeApi, value: Hashable, *, announce: bool) -> None:
        """Fix the outcome; members broadcast it once.  Halt is deferred
        until the linger budget is spent (see :meth:`linger_round`)."""
        if self.decided:
            return
        self.outcome = value
        self.linger_left = self.linger
        if announce:
            api.broadcast(KIND_DECISION, value)
        api.emit("outcome-ready", value=value, announced=announce)

    def linger_round(self, api: NodeApi, inbox: Inbox) -> bool:
        """Answer joiner queries; True once the linger budget is spent.

        Replies are direct sends — the querier's broadcast made it a
        contact of everyone, so the prior-contact rule passes.
        """
        for sender in sorted(inbox.distinct_senders(KIND_QUERY)):
            if sender != api.node_id and api.knows(sender):
                api.send(sender, KIND_OUTCOME, self.outcome)
        if self.linger_left > 0:
            self.linger_left -= 1
            return False
        return True

    # ------------------------------------------------------------------
    def watch_decisions(
        self, inbox: Inbox, committee: frozenset[NodeId]
    ) -> Hashable:
        """Fold this round's committee announcements; the adopted value,
        or ``_UNSET`` while no quorum has formed.

        The O(1) fast path first: most rounds carry no ``decision``
        message at all, and ``has_kind`` answers that off the shared
        index (on the columnar plane, without materializing anything).
        The per-value committee intersections are a shared derived view
        and the cumulative fold adopts them by reference: a node holds a
        private union only once a later round brings an announcer the
        adopted set lacks (thresholds read ``len()`` only).

        Adoption needs ``≥ |C|/3`` announcers: with fewer than ``|C|/3``
        Byzantine members, any such quorum contains a correct member,
        and committee agreement means every correct member announces the
        same value — so no two values can both reach the threshold.
        """
        if not inbox.has_kind(KIND_DECISION):
            return _UNSET
        shared = inbox.derive(
            ("committee-decision-tally", committee),
            lambda idx: tuple(
                (value, senders & committee)
                for value, senders in idx.payload_senders(
                    KIND_DECISION, ...
                ).items()
                if senders & committee
            ),
        )
        votes = self.decision_votes
        for value, senders in shared:
            seen = votes.get(value)
            if seen is None:
                votes[value] = senders
            elif not senders <= seen:
                votes[value] = seen | senders
        for value, senders in votes.items():
            if at_least_third(len(senders), len(committee)):
                return value
        return _UNSET

    def joiner_round(self, api: NodeApi, inbox: Inbox) -> Hashable:
        """Collect outcome replies, re-query; the adopted value or
        ``_UNSET``.

        Adoption needs a two-thirds quorum of all distinct responders so
        far — sound while the correct deciders are still lingering (they
        all answer, so ≥ 2/3 of responders are correct)."""
        for message in inbox.filter(KIND_OUTCOME):
            self.outcome_votes.setdefault(message.payload, set()).add(
                message.sender
            )
        responders: set[NodeId] = set()
        for senders in self.outcome_votes.values():
            responders |= senders
        for value, senders in self.outcome_votes.items():
            if at_least_two_thirds(len(senders), len(responders)):
                return value
        if (
            self.last_query is None
            or api.round - self.last_query >= QUERY_INTERVAL
        ):
            api.broadcast(KIND_QUERY)
            self.last_query = api.round
        return _UNSET


class CommitteeConsensus(EarlyConsensus):
    """Early-terminating consensus run by a sampled committee.

    Args:
        input_value: this node's input ``x_v``.
        substitution: Algorithm 3's missing-message substitution rule.
        sampling_seed: seed of the committee hash-ranking (pass the
            run's seed; every node must use the same value).
        committee_size: override the Θ(log² n) sizing (tests exercise
            the non-member path at small n with this; production sizing
            is the default's Chernoff bound).
        linger: rounds a decided node stays alive answering joiner
            queries before halting.

    Attributes:
        view: the full frozen hello-round view.
        committee: the sampled members.
        is_member: whether this node is one of them.
    """

    def __init__(
        self,
        input_value: Hashable,
        substitution: bool = True,
        *,
        sampling_seed: int | None = 0,
        committee_size: int | None = None,
        linger: int = 2,
    ):
        super().__init__(input_value, substitution)
        self.sampling_seed = sampling_seed
        self._size_override = committee_size
        self.view: frozenset[NodeId] = frozenset()
        self.committee: frozenset[NodeId] = frozenset()
        self.is_member = False
        self._gossip = OutcomeGossip(linger)

    # ------------------------------------------------------------------
    def decide(self, api: NodeApi, value: Hashable) -> None:
        # Defer the actual halt: announce (members), linger, then halt.
        self._gossip.ready(api, value, announce=self.is_member)

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        gossip = self._gossip
        if gossip.joined_at is None:
            gossip.joined_at = api.round
        if gossip.decided:
            if gossip.linger_round(api, inbox):
                Protocol.decide(self, api, gossip.outcome)
            return
        if gossip.joined_at > 1:
            # Joined after the hello round: never saw the view the
            # committee was sampled from — gossip fallback only.
            value = gossip.joiner_round(api, inbox)
            if value is not _UNSET:
                api.emit("adopt-gossip", value=value)
                self.decide(api, value)
            return

        if api.round == 1:
            api.broadcast(KIND_HELLO)
            return
        if api.round == 2:
            self.tracker.observe(inbox)
            self.view = self.tracker.freeze()
            self.committee = shared_committee(
                inbox, self.sampling_seed, self._size_override
            )
            self.is_member = api.node_id in self.committee
            # The committee is the frozen membership of the inner run.
            self.membership = self.committee
            self.n_v = len(self.committee)
            api.emit(
                "committee", size=self.n_v, member=self.is_member
            )
            if self.is_member:
                self.rotor.announce(api)
            return

        value = gossip.watch_decisions(inbox, self.committee)
        if value is not _UNSET:
            api.emit("adopt-implicit", value=value, member=self.is_member)
            self.decide(api, value)
            return
        if not self.is_member:
            return
        if api.round == SAMPLED_INIT_ROUNDS:
            self.rotor.echo_inits(api, self._restricted(inbox))
            return
        inbox = self._restricted(inbox)
        self.rotor.absorb(inbox)
        phase_round = (api.round - SAMPLED_INIT_ROUNDS - 1) % PHASE_LENGTH + 1
        self._run_phase_round(api, inbox, phase_round)


class CommitteeParallelConsensus(Protocol):
    """Parallel consensus (Algorithm 5) run by a sampled committee.

    Members run a :class:`ParallelConsensusMachine` with the committee
    as its fixed membership; once idle past the join window they
    broadcast the sorted output-pair tuple as their decision, and every
    other node adopts it through the same implicit-agreement quorum as
    :class:`CommitteeConsensus`.

    Non-member inputs never reach the committee in this variant — runs
    must give every correct node the same input pairs (the benchmark
    shape), or accept that only committee inputs are proposed.
    """

    def __init__(
        self,
        inputs: dict[Hashable, Hashable] | None = None,
        *,
        sampling_seed: int | None = 0,
        committee_size: int | None = None,
        linger: int = 2,
        linger_rounds: int = 0,
    ):
        super().__init__()
        self.inputs = dict(inputs or {})
        self.sampling_seed = sampling_seed
        self._size_override = committee_size
        self.linger_rounds = linger_rounds
        self.tracker = ViewTracker()
        self.view: frozenset[NodeId] = frozenset()
        self.committee: frozenset[NodeId] = frozenset()
        self.is_member = False
        self.machine: ParallelConsensusMachine | None = None
        self._gossip = OutcomeGossip(linger)

    # ------------------------------------------------------------------
    def decide(self, api: NodeApi, value: Hashable) -> None:
        self._gossip.ready(api, value, announce=self.is_member)

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        gossip = self._gossip
        if gossip.joined_at is None:
            gossip.joined_at = api.round
        if gossip.decided:
            if gossip.linger_round(api, inbox):
                Protocol.decide(self, api, gossip.outcome)
            return
        if gossip.joined_at > 1:
            value = gossip.joiner_round(api, inbox)
            if value is not _UNSET:
                api.emit("adopt-gossip", value=value)
                self.decide(api, value)
            return

        if api.round == 1:
            api.broadcast(KIND_HELLO)
            return
        if api.round == 2:
            self.tracker.observe(inbox)
            self.view = self.tracker.freeze()
            self.committee = shared_committee(
                inbox, self.sampling_seed, self._size_override
            )
            self.is_member = api.node_id in self.committee
            api.emit(
                "committee",
                size=len(self.committee),
                member=self.is_member,
            )
            if self.is_member:
                self.machine = ParallelConsensusMachine(
                    start_round=2, membership=self.committee
                )
                self.machine.on_round(api, inbox)  # rotor init broadcast
            return

        value = gossip.watch_decisions(inbox, self.committee)
        if value is not _UNSET:
            api.emit("adopt-implicit", value=value, member=self.is_member)
            self.decide(api, value)
            return
        if not self.is_member:
            return
        if api.round == SAMPLED_INIT_ROUNDS:
            # Submit now so the initial batch starts next round, phase-
            # aligned across all members.
            for instance_id, input_value in self.inputs.items():
                self.machine.submit(instance_id, input_value)
        self.machine.on_round(api, inbox)
        if (
            self.machine.join_window_closed(api.round)
            and api.round
            > SAMPLED_INIT_ROUNDS + PHASE_LENGTH + 2 + self.linger_rounds
            and self.machine.idle()
        ):
            self.decide(api, self.machine.output_pairs())

    # ------------------------------------------------------------------
    def output_pairs(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """The decided (or, for members, current) output pairs."""
        if isinstance(self.output, tuple):
            return self.output
        if self.machine is not None:
            return self.machine.output_pairs()
        return ()
