"""Threshold arithmetic and the shared echo-voting machinery.

The paper's conditions all have the shape "received at least ``n_v/3``
(or ``2n_v/3``) messages" where ``n_v`` is the number of distinct nodes
``v`` has ever heard from.  Thresholds are computed in exact integer
arithmetic — ``3 * count >= n_v`` — never in floating point, so the
boundary cases (``n_v`` not divisible by 3) match the paper's real-valued
inequalities precisely.

:class:`ViewTracker` maintains ``n_v``; :class:`EchoVoting` implements the
per-tag echo/accept pattern of Algorithm 1 that reliable broadcast, the
rotor-coordinator's candidate set, and Byzantine renaming all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping

from repro.sim.inbox import Inbox
from repro.types import NodeId, Round


def at_least_third(count: int, n_v: int) -> bool:
    """True when ``count >= n_v / 3`` with at least one real message.

    The ``count > 0`` clause encodes "received" — zero messages never
    satisfy a receive condition even when ``n_v`` is still zero.
    """
    return count > 0 and 3 * count >= n_v


def at_least_two_thirds(count: int, n_v: int) -> bool:
    """True when ``count >= 2 * n_v / 3`` with at least one real message."""
    return count > 0 and 3 * count >= 2 * n_v


def less_than_third(count: int, n_v: int) -> bool:
    """True when ``count < n_v / 3`` (the coordinator-switch condition).

    Exact integer form of the paper's inequality: ``3 * count < n_v``.
    Note this is *not* the negation of :func:`at_least_third` at the
    degenerate point ``count == 0, n_v == 0``: the paper's ``0 < 0/3``
    is false, while "received at least a third" also fails for lack of a
    real message.  Everywhere with ``n_v > 0`` or ``count > 0`` the two
    predicates partition the plane.
    """
    return 3 * count < n_v


def sorted_tags(tags: Iterable[Hashable]) -> list[Hashable]:
    """*tags* in ascending order, whatever a Byzantine node forged.

    Correct nodes only ever accept node ids, which sort as ever.  Outside
    ``n > 3f`` a forged tag (a string, a tuple) can reach the accept
    threshold too, and ids and forgeries do not compare; then numbers
    come first in their own order and every other tag follows by type
    name and repr — a total order, so a correct node never crashes on a
    Byzantine payload.
    """
    tags = list(tags)
    try:
        tags.sort()
    except TypeError:
        tags.sort(key=_total_key)
    return tags


def _total_key(tag: Hashable) -> tuple:
    if isinstance(tag, (int, float)):
        return (0, tag)
    return (1, type(tag).__name__, repr(tag))


class ViewTracker:
    """Tracks ``n_v``: the distinct nodes that ever sent us a message.

    Protocols call :meth:`observe` on every inbox.  ``n_v`` grows
    monotonically; :meth:`freeze` snapshots the membership for protocols
    (consensus, parallel consensus) that fix their view after
    initialization and discard messages from unknown senders thereafter.
    """

    __slots__ = ("_senders",)

    def __init__(self) -> None:
        #: Either the shared round frozenset adopted wholesale (the
        #: all-broadcast fast path: every node's view IS the round's
        #: sender set, one object between them) or a private set once
        #: ids arrive out-of-band (:meth:`observe_ids`).
        self._senders: set[NodeId] | frozenset[NodeId] = frozenset()

    def observe(self, inbox: Inbox) -> None:
        # The inbox's distinct-sender set is cached on its (possibly
        # round-shared) index.  While the view is a shared frozenset,
        # the steady state ("nothing new this round") is answered by the
        # index's cached covered_by — O(1) per node — and growth unions
        # into a new frozenset that stays shareable.
        current = self._senders
        if type(current) is frozenset:
            if not current:
                senders = inbox.distinct_senders()
                if senders:
                    self._senders = senders
                return
            if inbox.index.covered_by(current):
                return
            self._senders = current | inbox.distinct_senders()
            return
        current.update(inbox.distinct_senders())

    def observe_ids(self, ids: Iterable[NodeId]) -> None:
        current = self._senders
        if type(current) is frozenset:
            self._senders = set(current)
            self._senders.update(ids)
        else:
            current.update(ids)

    @property
    def n_v(self) -> int:
        return len(self._senders)

    @property
    def senders(self) -> frozenset[NodeId]:
        return frozenset(self._senders)

    def knows(self, node: NodeId) -> bool:
        return node in self._senders

    def freeze(self) -> frozenset[NodeId]:
        """Snapshot the current membership view.

        On the shared-view fast path this *is* the round index's shared
        sender frozenset — every node freezing the same round holds one
        object, which keeps later membership-keyed caches (restriction,
        covered_by, derived tallies) single-entry.
        """
        current = self._senders
        if type(current) is frozenset:
            return current
        return frozenset(current)


@dataclass
class EchoDecision:
    """Result of one echo-voting evaluation round.

    ``echo`` is a tuple, round-shared on the fast path: every node that
    evaluated the same shared tally against the same prior state gets
    the *same object*.  Pass it to ``broadcast_many`` as is — the engine
    then interns the round's echo batch once, by identity, instead of
    hashing and pinning one copy per node (DESIGN.md §4, "boundary
    invariant").
    """

    #: Tags to (re-)echo this round: reached ``n_v/3`` but not yet accepted.
    echo: tuple[Hashable, ...] = ()
    #: Tags newly accepted this round: reached ``2n_v/3``.
    newly_accepted: list[Hashable] = field(default_factory=list)
    #: Set on the shared-plane fast path: the round-shared delta this
    #: decision came from (``newly_accepted`` is then a shared list,
    #: the identical object for every node that adopted the same prior
    #: state — read-only by convention).  Consumers tracking sorted accepted tags
    #: (:class:`~repro.core.rotor.CandidateSet`) use it to adopt the
    #: shared sorted list instead of re-inserting per node.
    shared_delta: Any = None
    #: The evaluation round, when ``shared_delta`` is set.
    decided_round: Round | None = None


class _EchoDelta:
    """One shared echo decision *relative to* a prior accepted dict.

    Computed once per distinct prior state per round; in the lock-step
    all-correct steady state every node carries the identical prior
    object, so the whole population shares a single delta — and adopts
    the single merged accepted dict / sorted tag list it memoizes.
    """

    __slots__ = ("echo", "newly", "_prior", "_merged", "_sorted")

    def __init__(
        self,
        echo: tuple[Hashable, ...],
        newly: list[Hashable],
        prior: dict[Hashable, Round] | None,
    ):
        self.echo = echo
        self.newly = newly
        self._prior = prior
        self._merged: tuple[Round, dict] | None = None
        self._sorted: tuple[Round, list] | None = None

    def merged(self, round_no: Round) -> dict[Hashable, Round]:
        """Prior accepted dict plus the newly accepted tags (shared)."""
        cached = self._merged
        if cached is None or cached[0] != round_no:
            base = dict(self._prior) if self._prior else {}
            for tag in self.newly:
                base[tag] = round_no
            cached = self._merged = (round_no, base)
        return cached[1]

    def sorted_merged(self, round_no: Round) -> list[Hashable]:
        """Sorted tags of :meth:`merged` (shared; adopt copy-on-write)."""
        cached = self._sorted
        if cached is None or cached[0] != round_no:
            cached = self._sorted = (
                round_no,
                sorted_tags(self.merged(round_no)),
            )
        return cached[1]


class _SharedEchoDecision:
    """Both thresholds applied to one shared tally, once per round.

    Holds the threshold outcomes over *all* tags; :meth:`delta` filters
    them against a node's already-accepted dict, memoized by prior-dict
    identity (with a strong reference, so ids cannot be recycled).
    """

    __slots__ = ("echo_all", "newly_all", "_deltas", "_fresh")

    def __init__(
        self,
        tallies: Mapping[Hashable, frozenset[NodeId]],
        n_v: int,
    ):
        echo: list[Hashable] = []
        newly: list[Hashable] = []
        # Homogeneous broadcast rounds hand every tag the same shared
        # sender frozenset; memoize the thresholds by set identity so n
        # tags cost one count.
        last: Any = None
        echoes = accepts = False
        for tag, senders in tallies.items():
            if senders is not last:
                count = len(senders)
                echoes = at_least_third(count, n_v)
                accepts = at_least_two_thirds(count, n_v)
                last = senders
            if echoes:
                echo.append(tag)
            if accepts:
                newly.append(tag)
        # Shared between nodes and never mutated by consumers; the echo
        # tags are the round's one broadcast batch, hence a tuple.
        self.echo_all = tuple(echo)
        self.newly_all = newly
        self._deltas: dict[int, tuple[dict, _EchoDelta]] = {}
        self._fresh: _EchoDelta | None = None

    def delta(self, prior: dict[Hashable, Round] | None) -> _EchoDelta:
        if not prior:
            fresh = self._fresh
            if fresh is None:
                fresh = self._fresh = _EchoDelta(
                    self.echo_all, self.newly_all, None
                )
            return fresh
        key = id(prior)
        entry = self._deltas.get(key)
        if entry is not None and entry[0] is prior:
            return entry[1]
        delta = _EchoDelta(
            tuple(t for t in self.echo_all if t not in prior),
            [t for t in self.newly_all if t not in prior],
            prior,
        )
        self._deltas[key] = (prior, delta)
        return delta


class EchoVoting:
    """Per-tag echo accumulation (the core of Algorithm 1).

    Each *tag* is an independent reliable-broadcast payload: a message
    ``(m, s)``, a candidate coordinator id, an identifier to rename.  Per
    evaluation (one protocol round, or one embedded-rotor step):

    * a tag with echoes from at least ``n_v/3`` distinct senders that is
      not yet accepted must be echoed again (Alg 1 line ``echoBroad``);
    * a tag reaching ``2n_v/3`` distinct senders is accepted
      (line ``accept``).

    Senders accumulate *between* evaluations (so a protocol that evaluates
    every k-th round, like the rotor embedded in consensus, still sees all
    echoes) and reset after each evaluation (matching the paper's per-round
    counting, because correct nodes re-echo every round until acceptance).

    Pending sender sets may be the index's *shared frozensets*: the
    common absorb path (one inbox per tag per evaluation window) stores
    the round's cached tally directly, copy-on-extend only when a second
    batch arrives for the same tag.  :meth:`evaluate` only reads sizes,
    so the shared sets are never mutated.

    The *shared echo-decision plane* goes one step further for the
    dominant shape — exactly one :meth:`absorb_inbox` between
    evaluations, over a round-shared index: the whole tally is held as
    one chunk, the thresholds are computed once per round on the index
    (:class:`_SharedEchoDecision`), and each node takes only an O(1)
    identity-keyed delta against its accepted state, wholesale-adopting
    the shared merged ``accepted`` dict.  Any second absorb before the
    next evaluate folds the chunk back into the legacy per-tag union
    (thresholds apply to the union across chunks, never per chunk), and
    a node whose state diverged thaws its dict copy-on-write — the
    legacy semantics are the definition, the plane only shortcuts them.
    """

    __slots__ = ("_pending", "_shared", "accepted", "_accepted_shared")

    def __init__(self) -> None:
        self._pending: dict[Hashable, set[NodeId] | frozenset[NodeId]] = {}
        #: (tallies, index, key): one whole-inbox tally chunk held for
        #: the shared fast path; valid only while ``_pending`` is empty.
        self._shared: tuple | None = None
        self.accepted: dict[Hashable, Round] = {}
        #: True while ``accepted`` is a round-shared dict (adopted from
        #: the plane); any private write thaws a copy first.
        self._accepted_shared = False

    def _fold_shared(self) -> None:
        """Demote the held shared chunk into the per-tag pending union."""
        shared = self._shared
        if shared is not None:
            self._shared = None
            self._merge_sets(shared[0])

    def absorb(self, pairs: Iterable[tuple[NodeId, Hashable]]) -> None:
        """Record (sender, tag) echo observations since the last evaluate."""
        self._fold_shared()
        pending = self._pending
        for sender, tag in pairs:
            existing = pending.get(tag)
            if existing is None:
                pending[tag] = {sender}
            elif isinstance(existing, frozenset):
                if sender not in existing:
                    thawed = set(existing)
                    thawed.add(sender)
                    pending[tag] = thawed
            else:
                existing.add(sender)

    def absorb_sets(
        self, tallies: Mapping[Hashable, frozenset[NodeId]]
    ) -> None:
        """Record a shared ``tag -> frozenset(senders)`` tally wholesale.

        O(tags), not O(messages): each tag's distinct-sender set was
        already computed once on the round's shared index; absent tags
        adopt the shared frozenset without copying.
        """
        self._fold_shared()
        self._merge_sets(tallies)

    def _merge_sets(
        self, tallies: Mapping[Hashable, frozenset[NodeId]]
    ) -> None:
        pending = self._pending
        for tag, senders in tallies.items():
            existing = pending.get(tag)
            if existing is None:
                pending[tag] = senders
            elif isinstance(existing, frozenset):
                pending[tag] = existing | senders
            else:
                existing.update(senders)

    def absorb_inbox(
        self, inbox: Inbox, kind: str, instance: Hashable = ...
    ) -> None:
        """Record all echoes of *kind* from an inbox (payload is the tag).

        Rides the quorum-tally plane: the per-tag distinct-sender sets
        come from the inbox's (possibly round-shared) index, so the
        grouping work happens once per round, not once per node.  The
        single-absorb-per-evaluation shape — the protocols' hot path —
        keeps the whole tally as one shared chunk, deferring all
        per-tag work to the round-shared decision in :meth:`evaluate`.
        """
        tallies = inbox.payload_sender_sets(kind, instance)
        if not tallies:
            return
        if self._shared is None and not self._pending:
            self._shared = (tallies, inbox.index, (kind, instance))
            return
        self.absorb_sets(tallies)

    def evaluate(self, n_v: int, round_no: Round) -> EchoDecision:
        """Apply both thresholds, clear the pending buffer, and report."""
        shared = self._shared
        if shared is not None:
            self._shared = None
            tallies, index, key = shared
            decision_plane = index.derive(
                ("echo-decisions", key, n_v),
                lambda _idx: _SharedEchoDecision(tallies, n_v),
            )
            accepted = self.accepted
            delta = decision_plane.delta(accepted if accepted else None)
            if delta.newly:
                # Wholesale adoption: this node's accepted state becomes
                # the round-shared merged dict (thawed copy-on-write by
                # any later private acceptance).
                self.accepted = delta.merged(round_no)
                self._accepted_shared = True
                return EchoDecision(
                    echo=delta.echo,
                    newly_accepted=delta.newly,
                    shared_delta=delta,
                    decided_round=round_no,
                )
            return EchoDecision(echo=delta.echo)
        echo: list[Hashable] = []
        newly: list[Hashable] = []
        pending = self._pending
        if pending:
            accepted = self.accepted
            for tag, senders in pending.items():
                if tag in accepted:
                    continue
                count = len(senders)
                if at_least_third(count, n_v):
                    echo.append(tag)
                if at_least_two_thirds(count, n_v):
                    newly.append(tag)
                    if self._accepted_shared:
                        accepted = self.accepted = dict(accepted)
                        self._accepted_shared = False
                    accepted[tag] = round_no
            pending.clear()
        return EchoDecision(echo=tuple(echo), newly_accepted=newly)

    def is_accepted(self, tag: Hashable) -> bool:
        return tag in self.accepted

    def accepted_tags(self) -> list[Hashable]:
        return list(self.accepted)
