"""Parallel consensus in the id-only model (Algorithm 5).

Every correct node holds a set of ``(id, value)`` input pairs; for every
id, the correct nodes must agree on one output pair (or agree to output
nothing).  The twist: not every correct node knows every id, so nodes must
be able to *join* a running instance mid-flight, and instances whose id no
correct node input must die quietly (converge to ``⊥`` and output
nothing).

Per instance the protocol is Algorithm 3 with three additions:

* messages are tagged with the instance id;
* explicit ``nopreference`` / ``nostrongpreference`` markers distinguish a
  live node that saw no quorum from a silent (terminated) node;
* ``⊥`` back-fill on first hearing: a node that first hears
  ``id:input`` / ``id:prefer`` / ``id:strongprefer`` during rounds 2/3/5
  of the instance's first phase joins it, substituting ``m(⊥)`` for every
  counted node that did not send a type-``m`` message; later sightings of
  unknown ids are discarded.

Two engineering completions beyond the paper's text (see DESIGN.md §4):

* a ``noinput`` marker at phase-round 1 for nodes whose current opinion is
  ``⊥`` (the paper has markers for the other two abstention points; the
  symmetric marker makes the Algorithm-3 equivalence exact from phase 2
  on, where otherwise a live ``⊥``-holder is indistinguishable from a
  terminated node);
* a phase cap of ``⌊n_v/2⌋ + 3`` per instance.  Legitimate (phase-aligned)
  instances terminate within ``f + 2 <= ⌊n_v/2⌋ + 2`` phases; only
  Byzantine-initiated instances whose first-hearing types were split
  across rounds (a case outside the paper's proof) can run longer, they
  can never produce an output at any correct node, and the cap retires
  them with no output everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping

from repro.core.quorum import (
    ViewTracker,
    at_least_third,
    at_least_two_thirds,
    less_than_third,
)
from repro.core.rotor import CandidateSet, RotorCore, RotorCursor  # noqa: F401
from repro.sim.inbox import Inbox, InboxIndex, best_with_extra
from repro.sim.node import NodeApi, Protocol
from repro.types import BOTTOM, NodeId, Round, is_bottom

KIND_INPUT = "input"
KIND_PREFER = "prefer"
KIND_STRONGPREFER = "strongprefer"
KIND_NOINPUT = "noinput"
KIND_NOPREFERENCE = "nopreference"
KIND_NOSTRONGPREFERENCE = "nostrongpreference"

#: The paper's M: quorum-carrying message types.
QUORUM_KINDS: frozenset[str] = frozenset(
    {KIND_INPUT, KIND_PREFER, KIND_STRONGPREFER}
)
#: Marker sent when a quorum kind is abstained from.
MARKER_FOR: dict[str, str] = {
    KIND_INPUT: KIND_NOINPUT,
    KIND_PREFER: KIND_NOPREFERENCE,
    KIND_STRONGPREFER: KIND_NOSTRONGPREFERENCE,
}

PHASE_LENGTH = 5

#: Sentinel meaning "this node's most recent action for the kind was the
#: abstention marker" (used by the substitution rule).
_ABSTAINED = object()

#: First-hearing kind -> rounds since the instance it reveals started.
_JOIN_OFFSETS: dict[str, int] = {
    KIND_INPUT: 1,
    KIND_PREFER: 2,
    KIND_STRONGPREFER: 3,
}

#: ``namespace -> ((inner_id, wire_tag), ...)``; see :func:`namespace_view`.
NamespaceView = Mapping[Hashable, tuple[tuple[Hashable, Hashable], ...]]


def _namespace_view(index: InboxIndex) -> NamespaceView:
    tags = index.instance_tags()
    view: dict[Hashable, list[tuple[Hashable, Hashable]]] = {}
    if index.all_senders:
        view[None] = [(tag, tag) for tag in tags]
    for tag in tags:
        view.setdefault(tag, [])
        if isinstance(tag, tuple) and len(tag) == 2 and tag[0] is not None:
            pairs = view.setdefault(tag[0], [])
            if tag[1] is not None:
                pairs.append((tag[1], tag))
    return MappingProxyType(
        {namespace: tuple(pairs) for namespace, pairs in view.items()}
    )


def namespace_view(inbox: Inbox) -> NamespaceView:
    """The round's instance tags, grouped by machine namespace.

    A machine with ``base_tag`` *b* tags its own ``init``/``echo``
    traffic *b* and its instances ``(b, inner_id)``; an un-namespaced
    machine (``base_tag=None``) sends the former untagged and tags the
    latter with the bare id.  The view inverts that for every namespace
    at once, in one pass over ``instance_tags()``:

    * ``view[b]`` lists ``(inner_id, wire_tag)`` for every tag
      ``(b, inner_id)`` present, in first-occurrence order — what
      machine *b* walks for its joining rules;
    * ``view[None]`` lists ``(tag, tag)`` for *every* tag present;
    * ``b in view`` exactly when somebody addressed namespace *b* this
      round at all: a message tagged *b* itself (which contributes a
      key but no pair), or one tagged ``(b, ·)``; for ``None``, any
      message whatsoever.  ``None`` is the engine's "untagged" marker
      and never an inner id: a tag ``(b, None)`` addresses *b* without
      naming an instance.

    A pure function of the inbox's index, memoized on it through
    :meth:`~repro.sim.inbox.Inbox.derive` and read-only like every
    derived view: all the machines of all the nodes sharing a round's
    index share one view.
    """
    return inbox.derive("pc-namespaces", _namespace_view)


def _vote_base(
    index: InboxIndex, kind: str
) -> tuple[Mapping[Hashable, frozenset[NodeId]], tuple[Hashable, int]]:
    """Shared decoded vote base for one quorum kind of one instance.

    ``value -> frozenset(distinct senders)`` after wire decoding
    (``"__bottom__"`` -> ``⊥``) and after folding ``noinput`` markers
    into ``input(⊥)`` votes, plus its precomputed best ``(value,
    count)``.  Keys appear in first-occurrence order and the best uses
    the ``(count, repr)`` tie-break, both matching the historical
    per-node rebuild exactly.  Memoized on the instance's (round-shared)
    index via :meth:`InboxIndex.derive`, so every recipient counting
    this instance's votes pays for the grouping once per round.

    Built from the index's first-occurrence-ordered payload tally, never
    from message objects: folding ``"__bottom__"`` into ``⊥`` over it
    keeps both the key order and the sender sets of a per-message scan.
    """
    base: dict[Hashable, frozenset[NodeId]] = {}
    tallies = list(index.payload_senders(kind, ...).items())
    if kind == KIND_INPUT:
        tallies.append((BOTTOM, index.sender_set(KIND_NOINPUT, ..., ...)))
    for payload, senders in tallies:
        if not senders:
            continue
        value = BOTTOM if payload == "__bottom__" else payload
        held = base.get(value)
        base[value] = senders if held is None else held | senders
    if base:
        value, senders = max(
            base.items(), key=lambda item: (len(item[1]), repr(item[0]))
        )
        best: tuple[Hashable, int] = (value, len(senders))
    else:
        best = (None, 0)
    return MappingProxyType(base), best


def _unfilled_members(
    index: InboxIndex, kind: str, membership: frozenset[NodeId]
) -> frozenset[NodeId]:
    """Members that sent no type-*kind* message this round.

    The first-phase ``⊥`` back-fill base (``noinput`` counts as a typed
    ``input`` message).  Shared per ``(kind, membership)`` on the
    round's index: disjoint from every sender set in the vote base by
    construction, which is what lets :func:`best_with_extra` apply it as
    a pure count delta.
    """
    typed = index.sender_set(kind, ..., ...)
    if kind == KIND_INPUT:
        typed = typed | index.sender_set(KIND_NOINPUT, ..., ...)
    return membership - typed


@dataclass
class InstanceResult:
    """Terminal state of one consensus instance at one node."""

    instance_id: Hashable
    value: Hashable  # may be BOTTOM
    round: Round

    @property
    def has_output(self) -> bool:
        return not is_bottom(self.value)


class ConsensusInstance:
    """One ``EarlyConsensus(id)`` execution at one node.

    Two wiring modes:

    * ``own_init=False`` (Algorithm 5) — rotor initialization happened
      once at protocol start; the caller passes the shared candidate set
      into :meth:`on_round`.  ``start_round`` is the instance's first
      phase round.
    * ``own_init=True`` (Algorithm 6) — the instance spends its first two
      rounds on its own (instance-tagged) ``init``/``echo`` exchange and
      maintains its own candidate set; phases start two rounds after
      ``start_round``.  This matches the paper's per-instance finality
      budget of ``5f + 2`` rounds.
    """

    def __init__(
        self,
        instance_id: Hashable,
        start_round: Round,
        value: Hashable,
        joined_via: str = "input-pair",
        own_init: bool = False,
    ):
        self.instance_id = instance_id
        self.start_round = start_round
        self.x: Hashable = value
        self.joined_via = joined_via
        self.cursor = RotorCursor()
        self.own_candidates = (
            CandidateSet(instance=instance_id) if own_init else None
        )
        self.init_rounds = 2 if own_init else 0
        self.terminated = False
        self.result: InstanceResult | None = None
        #: Most recent action per quorum kind: a payload, _ABSTAINED, or
        #: absent when nothing of that kind was ever sent.
        self._last_action: dict[str, Hashable] = {}
        self._stashed_strong: tuple[Hashable, int] | None = None
        self._coordinator: NodeId | None = None
        #: True while the current phase is the one we joined in (the ⊥
        #: back-fill applies to first-phase countings only).
        self.join_phase_fill = True

    # ------------------------------------------------------------------
    def phase_round(self, round_no: Round) -> int:
        rel = round_no - self.start_round - self.init_rounds
        return rel % PHASE_LENGTH + 1

    def phase(self, round_no: Round) -> int:
        rel = round_no - self.start_round - self.init_rounds
        return rel // PHASE_LENGTH + 1

    # ------------------------------------------------------------------
    def on_round(
        self,
        api: NodeApi,
        tagged: Inbox,
        membership: frozenset[NodeId],
        n_v: int,
        candidates: list[NodeId] | None,
        phase_cap: int,
    ) -> None:
        """Advance the instance by one real round.

        ``tagged`` holds only this instance's messages (already restricted
        to the instance's membership); ``candidates`` is the shared rotor
        candidate set (``own_init`` instances ignore it and use theirs).
        """
        if self.terminated:
            return
        if self.own_candidates is not None:
            rel = api.round - self.start_round
            if rel == 0:
                self.own_candidates.announce(api)
                return
            if rel == 1:
                self.own_candidates.echo_inits(api, tagged)
                return
            self.own_candidates.absorb(tagged)
            self.own_candidates.evaluate(api, n_v, broadcast=True)
            candidates = self.own_candidates.candidates
        pr = self.phase_round(api.round)
        if pr == 1:
            phase = self.phase(api.round)
            if phase > phase_cap:
                self._terminate(api, BOTTOM)
                return
            if phase > 1:
                # The ⊥ back-fill applies to first-phase countings only.
                self.join_phase_fill = False
            self._send_or_abstain(api, KIND_INPUT, self.x)
        elif pr == 2:
            value, count = self._count(tagged, KIND_INPUT, membership)
            if at_least_two_thirds(count, n_v):
                self._send_or_abstain(api, KIND_PREFER, value)
            else:
                self._abstain(api, KIND_PREFER)
        elif pr == 3:
            value, count = self._count(tagged, KIND_PREFER, membership)
            if at_least_third(count, n_v):
                self.x = value
            if at_least_two_thirds(count, n_v):
                self._send_or_abstain(api, KIND_STRONGPREFER, value)
            else:
                self._abstain(api, KIND_STRONGPREFER)
        elif pr == 4:
            self._stashed_strong = self._count(
                tagged, KIND_STRONGPREFER, membership
            )
            step = self.cursor.select(
                api,
                candidates,
                self.x,
                instance=self.instance_id,
                allow_repeat=True,
            )
            self._coordinator = step.coordinator
        else:  # pr == 5
            opinion = RotorCore.opinion_from(
                tagged, self._coordinator, instance=self.instance_id
            )
            if self._stashed_strong is None:
                # Joined via a first-phase strongprefer sighting: the
                # stash round never ran; count this round's strongprefer
                # messages with the join-phase ⊥ back-fill instead.
                self._stashed_strong = self._count(
                    tagged, KIND_STRONGPREFER, membership
                )
            value, count = self._stashed_strong
            self._stashed_strong = None
            # Coordinator switch uses the paper's strict count < n_v/3
            # (an instance's frozen view always contains the node
            # itself, so n_v >= 1 and this matches the pre-fix
            # not-at_least_third formulation at every reachable point).
            if less_than_third(count, n_v) and opinion is not None:
                self.x = opinion
            if at_least_two_thirds(count, n_v):
                self._terminate(api, value)

    # ------------------------------------------------------------------
    def _terminate(self, api: NodeApi, value: Hashable) -> None:
        self.terminated = True
        self.result = InstanceResult(self.instance_id, value, api.round)
        api.emit(
            "instance-terminate",
            instance=self.instance_id,
            value=None if is_bottom(value) else value,
            output=not is_bottom(value),
        )

    def _send_or_abstain(
        self, api: NodeApi, kind: str, value: Hashable
    ) -> None:
        """Broadcast ``kind(value)``, or the abstention marker for ``⊥``.

        Only ``input`` treats ``⊥`` as an abstention (Alg 5 broadcasts the
        input only when ``x ≠ ⊥``); ``prefer(⊥)``/``strongprefer(⊥)`` are
        legitimate votes for the "no output" outcome and go on the wire.
        """
        if kind == KIND_INPUT and is_bottom(value):
            self._abstain(api, kind)
            return
        payload = None if is_bottom(value) else value
        wire = payload if not is_bottom(value) else "__bottom__"
        api.broadcast(kind, wire, instance=self.instance_id)
        self._last_action[kind] = value

    def _abstain(self, api: NodeApi, kind: str) -> None:
        api.broadcast(MARKER_FOR[kind], instance=self.instance_id)
        self._last_action[kind] = _ABSTAINED

    # ------------------------------------------------------------------
    def _count(
        self, tagged: Inbox, kind: str, membership: frozenset[NodeId]
    ) -> tuple[Hashable, int]:
        """Count distinct supporters per value for one quorum kind.

        Applies, in order: wire decoding (``"__bottom__"`` -> ``⊥``),
        ``noinput`` markers as ``input(⊥)`` votes, the first-phase ``⊥``
        back-fill, and the own-last-message substitution for silent
        members.

        The decoded vote base and the membership back-fill sets are
        shared derived views on the instance's (round-shared) index —
        every recipient counting this instance's votes pays for them
        once; only the own-last-action substitution value is per-node,
        layered as an O(1) delta via :func:`best_with_extra`.  The
        result is pinned to the naive per-node dict-building
        implementation by ``tests/properties/test_tally_coherence.py``.
        """
        index = tagged.index
        base, best = index.derive(
            ("pc-votes", kind), lambda idx: _vote_base(idx, kind)
        )
        if self.join_phase_fill:
            # First-phase rule: substitute kind(⊥) for every counted node
            # that sent no type-`kind` message.
            unfilled = index.derive(
                ("pc-unfilled", kind, membership),
                lambda idx: _unfilled_members(idx, kind, membership),
            )
            return best_with_extra(base, best, BOTTOM, len(unfilled))
        own = self._last_action.get(kind, _ABSTAINED)
        if own is _ABSTAINED:
            return best
        # Subsequent rounds: silent members (no tagged message at all
        # this round) mirror our own most recent action of this kind.
        missing = index.derive(
            ("pc-missing", membership),
            lambda idx: membership - idx.all_senders,
        )
        return best_with_extra(base, best, own, len(missing))


class ParallelConsensusMachine:
    """The Algorithm-5 engine, decoupled from the Protocol lifecycle.

    One machine = one rotor initialization + any number of consensus
    instances sharing it.  :class:`ParallelConsensus` wraps one machine as
    a standalone protocol; total ordering (Algorithm 6) runs one machine
    per network round, namespaced by ``base_tag``.

    Args:
        start_round: the (global) round of the machine's ``init``
            broadcast; phases of the initial batch begin two rounds later.
        membership: fixed membership (total ordering passes its recorded
            ``S``); None means "freeze whoever speaks during
            initialization" (the static Algorithm-5 rule).
        base_tag: wire namespace.  None tags inner instances with their
            bare id (static use); otherwise instances are tagged
            ``(base_tag, id)`` and init traffic with ``base_tag``.
    """

    def __init__(
        self,
        start_round: Round,
        membership: frozenset[NodeId] | None = None,
        base_tag: Hashable = None,
    ):
        self.start_round = start_round
        self.membership = membership
        self.n_v = len(membership) if membership is not None else 0
        self.base_tag = base_tag
        self.tracker = ViewTracker()
        self.candidate_set = CandidateSet(instance=base_tag)
        self.instances: dict[Hashable, ConsensusInstance] = {}
        self._pending: dict[Hashable, Hashable] = {}
        self._results: dict[Hashable, InstanceResult] = {}
        self._started_batch = False
        #: Deterministic execution order over ``instances``, rebuilt only
        #: when the instance set changes (repr-sorting dozens of live
        #: instances every round, per node, was measurable at n=200).
        self._order: list[Hashable] = []
        self._order_dirty = False
        self._output_cache: (
            tuple[tuple[Hashable, Hashable], ...] | None
        ) = None

    # -- namespacing ------------------------------------------------------
    def _wire_tag(self, inner_id: Hashable) -> Hashable:
        if self.base_tag is None:
            return inner_id
        return (self.base_tag, inner_id)

    # -- inputs and results -----------------------------------------------
    def submit(self, instance_id: Hashable, value: Hashable) -> None:
        """Queue an input pair; its instance starts on the next round.

        All correct nodes must submit a given id in the same round for
        the instances to be phase-aligned.
        """
        self._pending[instance_id] = value

    @property
    def results(self) -> dict[Hashable, InstanceResult]:
        """Terminal results so far (including ``⊥``/no-output ones)."""
        return dict(self._results)

    def output_pairs(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """The non-``⊥`` outputs, sorted by instance id.

        Cached: repeated calls return the same tuple object until a new
        terminal result lands (total ordering polls every finalized
        machine each round).
        """
        cached = self._output_cache
        if cached is None:
            pairs = [
                (r.instance_id, r.value)
                for r in self._results.values()
                if r.has_output
            ]
            cached = self._output_cache = tuple(
                sorted(pairs, key=lambda p: repr(p[0]))
            )
        return cached

    def idle(self) -> bool:
        """True when no instance is running and none is queued."""
        return not self.instances and not self._pending

    def quiescent(self, round_no: Round, spoken: NamespaceView) -> bool:
        """True when :meth:`on_round` at *round_no* would be a no-op.

        *spoken* is the :func:`namespace_view` of the round's
        **unrestricted** inbox.  The machine is past its two
        initialization rounds, idle, and nobody addressed its namespace:
        then the candidate set absorbs an empty tally and evaluates
        nothing (absorb and evaluate are paired inside one ``on_round``,
        so no echo is ever held across rounds), there is no pending
        input to start, no tag to join and no instance to run, and
        nothing is emitted.  Silence before the membership restriction
        implies silence after it.  A caller holding many machines may
        therefore leave a quiescent one unstepped, for any number of
        rounds, without any observable difference (DESIGN.md §4).
        """
        return (
            round_no - self.start_round >= 2
            and self.idle()
            and self.base_tag not in spoken
        )

    def join_window_closed(self, round_no: Round) -> bool:
        """True once the initial batch's first phase is fully over."""
        return round_no > self.start_round + 2 + PHASE_LENGTH

    @property
    def phase_cap(self) -> int:
        return self.n_v // 2 + 3

    # -- round execution ----------------------------------------------------
    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        rel = api.round - self.start_round
        if rel < 0:
            return
        if rel == 0:
            self.candidate_set.announce(api)
            return
        if rel == 1:
            if self.membership is None:
                self.tracker.observe(inbox)
                self.membership = self.tracker.freeze()
                self.n_v = len(self.membership)
            self.candidate_set.echo_inits(
                api, self._restrict(inbox)
            )
            return

        inbox = self._restrict(inbox)
        self.candidate_set.absorb(inbox)
        self.candidate_set.evaluate(api, self.n_v, broadcast=True)

        self._start_pending(api)
        self._join_new_instances(api, inbox)
        self._run_instances(api, inbox)

    def _restrict(self, inbox: Inbox) -> Inbox:
        """Only accept messages from the recorded membership.

        Returns the original inbox (with its round-shared index) when no
        out-of-view sender is present — the steady-state case.
        """
        if self.membership is None:
            return inbox
        return inbox.restricted_to(self.membership)

    # -- internals ----------------------------------------------------------
    def _start_pending(self, api: NodeApi) -> None:
        for instance_id, value in self._pending.items():
            if instance_id in self.instances or instance_id in self._results:
                continue
            self.instances[instance_id] = ConsensusInstance(
                self._wire_tag(instance_id), api.round, value
            )
            self._order_dirty = True
            api.emit(
                "instance-start", instance=self._wire_tag(instance_id)
            )
        self._pending.clear()

    def _join_new_instances(self, api: NodeApi, inbox: Inbox) -> None:
        """The first-hearing joining rules (Thm 10.1's case analysis).

        ``input`` heard at what must be phase-round 2 -> start was last
        round; ``prefer`` -> phase-round 3; ``strongprefer`` ->
        phase-round 4 (the paper says "fifth round", meaning the round
        that *evaluates* strongprefer counts; the messages themselves,
        sent at phase-round 3, land at phase-round 4 where the joiner
        must stash them like everyone else).  Anything else about an
        unknown id — coordinator opinions, second-phase traffic — is
        discarded.

        Walks only this machine's own tags, off the round's shared
        :func:`namespace_view` (first-occurrence order): most rounds
        carry zero unknown instances, and the known ones are dismissed
        with one dict probe per instance rather than one per message.
        """
        for inner, wire_tag in namespace_view(inbox).get(self.base_tag, ()):
            if inner in self.instances or inner in self._results:
                continue
            for message in inbox.filter(instance=wire_tag):
                offset = _JOIN_OFFSETS.get(message.kind)
                if offset is None:
                    continue
                start = api.round - offset
                if start < self.start_round + 2:
                    continue  # would predate the machine itself
                self.instances[inner] = ConsensusInstance(
                    self._wire_tag(inner),
                    start,
                    BOTTOM,
                    joined_via=message.kind,
                )
                self._order_dirty = True
                api.emit(
                    "instance-join",
                    instance=self._wire_tag(inner),
                    via=message.kind,
                )
                break

    def _run_instances(self, api: NodeApi, inbox: Inbox) -> None:
        if self._order_dirty:
            self._order = sorted(self.instances, key=repr)
            self._order_dirty = False
        if not self._order:
            return
        any_terminated = False
        instances = self.instances
        # The round's instance partition, fetched once: one dict probe
        # per instance instead of one filter() chain per instance.
        tagged_by_instance = inbox.by_instance()
        silent: Inbox | None = None
        membership = self.membership
        n_v = self.n_v
        candidates = self.candidate_set.candidates
        phase_cap = self.phase_cap
        for inner in self._order:
            instance = instances[inner]
            wire_tag = instance.instance_id
            tagged = tagged_by_instance.get(wire_tag)
            if tagged is None:
                # Nobody spoke on this instance: every absent tag is the
                # index's one shared empty inbox.
                if silent is None:
                    silent = inbox.filter(instance=wire_tag)
                tagged = silent
            instance.on_round(
                api, tagged, membership, n_v, candidates, phase_cap
            )
            if instance.terminated:
                result = instance.result
                # Report results under the inner id, not the wire tag.
                self._results[inner] = InstanceResult(
                    inner, result.value, result.round
                )
                self._output_cache = None
                any_terminated = True
        if any_terminated:
            for inner in self._order:
                if self.instances[inner].terminated:
                    del self.instances[inner]
            self._order = [i for i in self._order if i in self.instances]


class ParallelConsensus(Protocol):
    """The full ParallelConsensus protocol of §10 as a standalone run.

    Args:
        inputs: this node's input pairs ``{id: value}``.
        linger_rounds: extra rounds to stay alive after all known
            instances have terminated (for runs where Byzantine nodes may
            initiate instances late).

    The node's output (``self.output`` once decided) is a sorted tuple of
    ``(id, value)`` pairs — every instance that terminated with a non-``⊥``
    value.
    """

    def __init__(
        self,
        inputs: dict[Hashable, Hashable] | None = None,
        linger_rounds: int = 0,
    ):
        super().__init__()
        self.inputs = dict(inputs or {})
        self.linger_rounds = linger_rounds
        self.machine = ParallelConsensusMachine(start_round=1)

    @property
    def results(self) -> dict[Hashable, InstanceResult]:
        return self.machine.results

    def output_pairs(self) -> tuple[tuple[Hashable, Hashable], ...]:
        return self.machine.output_pairs()

    def submit(self, instance_id: Hashable, value: Hashable) -> None:
        self.machine.submit(instance_id, value)

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        if api.round == 2:
            # The node's initial input pairs start in round 3.
            for instance_id, value in self.inputs.items():
                self.machine.submit(instance_id, value)
        self.machine.on_round(api, inbox)
        if (
            self.machine.join_window_closed(api.round)
            and api.round > 2 + PHASE_LENGTH + 2 + self.linger_rounds
            and self.machine.idle()
        ):
            self.decide(api, self.output_pairs())
