"""Per-round inbox with the quorum-counting helpers the paper's proofs use.

Every count is a count of *distinct senders*: the model discards duplicate
messages from the same sender within a round, and all threshold arguments
("received at least ``n_v/3`` echo messages") quantify over senders.

Every inbox is a view over a :class:`~repro.sim.columnar.ColumnarIndex`,
a *row view* of a round's columns.  The engine hands every recipient
that got exactly the round's broadcasts one shared inbox, and every
recipient group with direct messages one of its own, so buckets, sender
sets and payload tallies are computed once per round (or group) instead
of once per node.  ``Inbox(messages)`` — a masked recipient, the net
runtime, a hand-built inbox — is a row view of private columns: one row
per message in order, duplicates included.

Shared-index invariant: an index (and every bucket, set and counter it
caches) is a pure *view* over rows of one round's columns.  Nothing may
mutate a message or a cached structure after it is handed out; the
query methods therefore return fresh ``set``/``Counter`` copies wherever
callers could mutate the result.  Mutating an index internal is a bug,
not a feature request.

:class:`InboxIndex` holds what every index caches; its subclass
:class:`~repro.sim.columnar.ColumnarIndex` holds the counting passes.
Buckets are partitions, not per-key scans: the first per-kind or
per-instance read of an index groups *every* key in one pass, and
:meth:`InboxIndex.instance_subs` exposes the instance partition whole
(``tag -> shared sub-inbox``) so a protocol running many instances pays
one dict probe per instance per round.  A ``Message`` exists only for a
row that somebody iterates.

The *quorum-tally plane* extends the sharing one layer up, into the
protocols' counting: :meth:`InboxIndex.derive` memoizes arbitrary derived
views (decoded vote bases, membership back-fill sets) per round, so the
per-instance tallies every recipient of a shared index would rebuild are
computed exactly once; :meth:`InboxIndex.restricted` shares one
membership-restricted sub-inbox per ``(index, membership)``; and
:func:`best_with_extra` layers the genuinely per-node parts (own-message
substitution, ``⊥`` back-fill) as O(1) deltas on a shared tally.  Derived
values obey the same invariant: they are pure functions of the index
contents, shared by every aliasing recipient, and must never be mutated.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from repro.sim.message import Message
from repro.types import NodeId

#: Query-key sentinel: ``...`` (Ellipsis) means "don't care", so ``None``
#: stays a matchable payload / instance value.
_ANY = ...

#: ``_subs`` key of an index's one shared empty sub-inbox (no bucket key
#: is a 1-tuple, so it cannot collide).
_EMPTY_SUB = ("empty",)


class InboxIndex:
    """The cached query structures of one index, filled on first demand.

    One index may be shared by many :class:`Inbox` views (the engine's
    all-broadcast hot path); every cache therefore fills in at most once
    per round, whichever recipient asks first.  The passes that fill
    them — ``_distinct_senders``, ``_senders_matching``, ``_tally``,
    ``_kind_set``, ``_instance_buckets``, ``_view`` and the bucket
    sub-inboxes — are the subclass's
    (:class:`~repro.sim.columnar.ColumnarIndex`, the one implementation).
    """

    __slots__ = (
        "_all_senders",
        "_sender_sets",
        "_payload_senders",
        "_best",
        "_kinds",
        "_instance_tags",
        "_subs",
        "_instance_subs",
        "_derived",
        "_restrictions",
        "_covered",
    )

    def __init__(self) -> None:
        self._all_senders: frozenset[NodeId] | None = None
        #: (kind, payload, instance) -> frozenset of matching senders.
        self._sender_sets: dict[tuple, frozenset[NodeId]] = {}
        #: (kind, instance) -> {payload: frozenset of senders}, in first-
        #: occurrence order (the tie-break in best_payload depends on it),
        #: stored behind read-only proxies so shared tallies cannot be
        #: mutated by any recipient.
        self._payload_senders: dict[tuple, Mapping[Hashable, frozenset]] = {}
        #: (kind, instance) -> cached best_payload result.
        self._best: dict[tuple, tuple[Hashable, int]] = {}
        self._kinds: frozenset[str] | None = None
        self._instance_tags: tuple[Hashable, ...] | None = None
        #: Cached sub-Inbox views for kind/sender buckets, so repeated
        #: ``filter(kind)`` calls across recipients share one sub-index
        #: too.
        self._subs: dict[tuple, "Inbox"] = {}
        #: instance tag -> shared sub-inbox: the round's instance
        #: partition, built whole on first demand (see instance_subs).
        self._instance_subs: Mapping[Hashable, "Inbox"] | None = None
        #: The quorum-tally plane: key -> derived view, built at most
        #: once per index by whichever recipient asks first.
        self._derived: dict[Hashable, Any] = {}
        #: membership -> shared membership-restricted sub-inbox.
        self._restrictions: dict[frozenset, "Inbox"] = {}
        #: membership -> "every sender is inside it" (the restricted_to
        #: fast-path check, paid once per membership per round instead
        #: of once per recipient).
        self._covered: dict[frozenset, bool] = {}

    # ------------------------------------------------------------------
    # Sender sets and payload tallies
    # ------------------------------------------------------------------
    @property
    def all_senders(self) -> frozenset[NodeId]:
        senders = self._all_senders
        if senders is None:
            senders = self._all_senders = self._distinct_senders()
        return senders

    def sender_set(
        self, kind: str | None, payload: Any, instance: Any
    ) -> frozenset[NodeId]:
        """Distinct senders of messages matching the filters (cached)."""
        if kind is None and payload is _ANY and instance is _ANY:
            return self.all_senders
        key = (kind, payload, instance)
        cached = self._sender_sets.get(key)
        if cached is None:
            cached = self._sender_sets[key] = self._senders_matching(
                kind, payload, instance
            )
        return cached

    def payload_senders(
        self, kind: str, instance: Any
    ) -> Mapping[Hashable, frozenset[NodeId]]:
        """``payload -> distinct senders`` for one kind (cached).

        Insertion order is the first occurrence of each payload among the
        matching messages — :meth:`best_payload` relies on it so that
        exact ties (equal count *and* equal repr) resolve identically to
        the historical linear scan.  The mapping is a read-only view of
        the shared cache; every recipient aliasing this index gets the
        same object.
        """
        key = (kind, instance)
        cached = self._payload_senders.get(key)
        if cached is None:
            cached = self._payload_senders[key] = MappingProxyType(
                self._tally(kind, instance)
            )
        return cached

    def best_payload(
        self, kind: str, instance: Any
    ) -> tuple[Hashable, int]:
        key = (kind, instance)
        cached = self._best.get(key)
        if cached is None:
            tallies = self.payload_senders(kind, instance)
            if not tallies:
                cached = (None, 0)
            else:
                payload, senders = max(
                    tallies.items(),
                    key=lambda item: (len(item[1]), repr(item[0])),
                )
                cached = (payload, len(senders))
            self._best[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Kind / instance surveys
    # ------------------------------------------------------------------
    @property
    def all_kinds(self) -> frozenset[str]:
        kinds = self._kinds
        if kinds is None:
            kinds = self._kinds = self._kind_set()
        return kinds

    def instance_tags(self) -> tuple[Hashable, ...]:
        """Instance tags in first-occurrence order (untagged excluded).

        Callers that *iterate* instances (parallel consensus walking
        per-instance buckets for join decisions) need an order
        independent of set hashing.
        """
        tags = self._instance_tags
        if tags is None:
            tags = self._instance_tags = tuple(
                tag for tag in self._instance_buckets() if tag is not None
            )
        return tags

    def covered_by(self, members: frozenset[NodeId]) -> bool:
        """True when every sender is in *members* (cached per membership).

        :meth:`Inbox.restricted_to` asks this every round for every
        recipient; the subset test is O(senders), so the answer is
        cached once per membership on the (shared) index.  A sender-less
        index is covered by every membership and caches nothing: the
        engine's empty inbox outlives the run, and a membership-keyed
        entry per run would leak (and make a same-seed rerun pay an
        O(n) key comparison per lookup).
        """
        if not isinstance(members, frozenset):
            return self.all_senders <= members
        cached = self._covered.get(members)
        if cached is None:
            senders = self.all_senders
            cached = senders <= members
            if senders:
                self._covered[members] = cached
        return cached

    # ------------------------------------------------------------------
    # The quorum-tally plane: shared derived views
    # ------------------------------------------------------------------
    def derive(self, key: Hashable, build: Callable[["InboxIndex"], Any]) -> Any:
        """Memoize ``build(self)`` under *key* on this index.

        This is the extension point of the quorum-tally plane: protocol
        layers use it to share per-round derived tallies (decoded vote
        bases, membership back-fill sets) across every recipient aliasing
        the index, instead of rebuilding them once per node.

        ``build`` must be a pure function of the index contents — the
        result is cached on first demand and handed, unchanged, to every
        later caller of the same key.  Callers must treat the result as
        immutable (the shared-index invariant) and namespace their keys
        (e.g. ``("pc-votes", kind)``) so independent protocol layers
        cannot collide.

        A sender-less index rebuilds instead of memoizing (there is
        nothing to tally, and see :meth:`covered_by`: keys carry
        memberships and the engine's empty inbox outlives the run).
        """
        derived = self._derived
        try:
            return derived[key]
        except KeyError:
            value = build(self)
            if self.all_senders:
                derived[key] = value
            return value

    def restricted(self, members: frozenset[NodeId]) -> "Inbox":
        """The shared sub-inbox of messages whose sender is in *members*.

        Cached per membership value: two hundred nodes restricting one
        round's shared index to the same frozen membership get one
        filtered sub-inbox (and one sub-index) between them.
        """
        if not isinstance(members, frozenset):
            members = frozenset(members)
        sub = self._restrictions.get(members)
        if sub is None:
            if not self.all_senders:
                # Nothing to restrict, and nothing to key by membership.
                return self._sub(_EMPTY_SUB, ())
            sub = self._restrictions[members] = self._restriction(members)
        return sub

    # ------------------------------------------------------------------
    # Shared sub-views
    # ------------------------------------------------------------------
    def _sub(self, key: tuple, bucket: Sequence[int]) -> "Inbox":
        if not bucket:
            # Every empty bucket of one index is the same empty inbox.
            key = _EMPTY_SUB
        sub = self._subs.get(key)
        if sub is None:
            sub = self._subs[key] = self._view(bucket)
        return sub

    def sub_by_instance(self, instance: Hashable) -> "Inbox":
        sub = self.instance_subs().get(instance)
        return self._sub(_EMPTY_SUB, ()) if sub is None else sub

    def instance_subs(self) -> Mapping[Hashable, "Inbox"]:
        """``instance tag -> shared sub-inbox`` for every tag present.

        The per-round instance partition as inboxes: built whole, once
        per index, from one bucketing pass, in first-occurrence order
        (untagged messages under ``None``).  These are the very objects
        :meth:`sub_by_instance` hands out, so a protocol that runs many
        instances fetches the mapping once per round and pays one dict
        probe per instance.  They are row views, like every sub-inbox.
        """
        subs = self._instance_subs
        if subs is None:
            subs = self._instance_subs = MappingProxyType(
                {
                    tag: self._view(bucket)
                    for tag, bucket in self._instance_buckets().items()
                }
            )
        return subs


class Inbox:
    """The set of messages a node received at the start of a round.

    An inbox is an immutable view over an index: a prebuilt — possibly
    shared — row view of a round's columns (``index=``), or, for
    ``Inbox(messages)``, a private row view holding one row per message
    in order, duplicates and the message objects themselves included.
    All query methods route through the index and return results
    identical to a naive linear scan (pinned by
    ``tests/properties/test_index_coherence.py``).  Counts and tallies
    come straight from the columns; message objects are built only for
    the rows somebody iterates.
    """

    __slots__ = ("_index", "_size")

    def __init__(
        self,
        messages: Iterable[Message] = (),
        *,
        index: InboxIndex | None = None,
    ):
        if index is None:
            # Imported here: repro.sim.columnar builds on this module.
            from repro.sim.columnar import ColumnarIndex

            index = ColumnarIndex.of(messages)
        self._index = index
        self._size: int | None = None

    @property
    def index(self) -> InboxIndex:
        """The query index backing this inbox."""
        return self._index

    def __iter__(self) -> Iterator[Message]:
        return iter(self._index.messages)

    def __len__(self) -> int:
        # Kept on the inbox: the engine's ``deliver`` event asks it once
        # per recipient, and most recipients share one inbox.
        size = self._size
        if size is None:
            size = self._size = self._index.message_count()
        return size

    def filter(
        self,
        kind: str | None = None,
        payload: Any = ...,
        instance: Any = ...,
    ) -> "Inbox":
        """Return a sub-inbox of the messages matching the filters.

        The single-axis filters (by kind, by instance) return the
        index's cached sub-inbox, so every recipient of a shared round
        index gets the *same* object — and one shared sub-index with
        it; a kind within an instance is the instance's kind bucket.
        Only a payload filter scans messages, into a private inbox.
        """
        sub = self
        if instance is not _ANY:
            sub = self.index.sub_by_instance(instance)
        if kind is not None:
            sub = sub.index.sub_by_kind(kind)
        if payload is _ANY:
            return sub
        return Inbox(m for m in sub if m.matches(payload=payload))

    def senders(
        self,
        kind: str | None = None,
        payload: Any = ...,
        instance: Any = ...,
    ) -> set[NodeId]:
        """Distinct senders of matching messages."""
        return set(self.index.sender_set(kind, payload, instance))

    def distinct_senders(
        self,
        kind: str | None = None,
        payload: Any = ...,
        instance: Any = ...,
    ) -> frozenset[NodeId]:
        """Like :meth:`senders`, but returns the index's shared frozenset.

        Zero-copy: every recipient aliasing the round's index gets the
        same cached object, so callers must not rely on mutating it
        (they cannot — it is a frozenset).
        """
        return self.index.sender_set(kind, payload, instance)

    def count(
        self,
        kind: str | None = None,
        payload: Any = ...,
        instance: Any = ...,
    ) -> int:
        """Number of distinct senders of matching messages."""
        return len(self.index.sender_set(kind, payload, instance))

    def payload_counts(
        self, kind: str, instance: Any = ...
    ) -> Counter:
        """Map payload -> distinct sender count, for one message kind.

        This is the primitive behind "if received at least ``2n_v/3``
        ``input(x)`` for some value ``x``": take the max of the counter.
        """
        tallies = self.index.payload_senders(kind, instance)
        return Counter({p: len(senders) for p, senders in tallies.items()})

    def payload_sender_sets(
        self, kind: str, instance: Any = ...
    ) -> Mapping[Hashable, frozenset[NodeId]]:
        """``payload -> frozenset(distinct senders)`` for one kind.

        The quorum-tally plane's raw material: a *shared read-only*
        mapping cached on the (possibly round-shared) index, in
        first-occurrence payload order.  Use :meth:`payload_counts` when
        a mutable counter is wanted; use this when only reading, so all
        recipients pay for the tally once.
        """
        return self.index.payload_senders(kind, instance)

    def best_payload(
        self, kind: str, instance: Any = ...
    ) -> tuple[Hashable, int]:
        """The payload with the most distinct senders and its count.

        Ties break deterministically on the payload repr so that runs are
        reproducible.  Returns ``(None, 0)`` when nothing matches.
        """
        return self.index.best_payload(kind, instance)

    def from_sender(self, sender: NodeId) -> "Inbox":
        """Messages received from one specific node."""
        return self.index.sub_by_sender(sender)

    def received_from(
        self,
        sender: NodeId,
        kind: str | None = None,
        payload: Any = ...,
        instance: Any = ...,
    ) -> bool:
        """True when *sender* sent a matching message this round."""
        return sender in self.index.sender_set(kind, payload, instance)

    def has_kind(self, kind: str) -> bool:
        """True when any message of *kind* is present.

        Unlike ``kinds()`` this returns no copy, and it answers straight
        off the kind column without materializing a single message — the sampled-consensus
        non-members poll for decision announcements with this, keeping
        their per-round work O(1).
        """
        return kind in self.index.all_kinds

    def kinds(self, instance: Any = ...) -> set[str]:
        """The set of message kinds present (optionally within an instance)."""
        return set(self.filter(instance=instance).index.all_kinds)

    def instances(self) -> set[Hashable]:
        """The set of instance tags present (excluding untagged messages)."""
        return set(self.index.instance_tags())

    def instance_tags(self) -> tuple[Hashable, ...]:
        """Instance tags in first-occurrence order (untagged excluded)."""
        return self.index.instance_tags()

    def by_instance(self) -> Mapping[Hashable, "Inbox"]:
        """``instance tag -> sub-inbox`` for every tag present.

        The same shared sub-inboxes ``filter(instance=tag)`` returns
        (untagged messages under ``None``), as one read-only mapping
        built once per round index; an absent tag has no entry and
        ``filter(instance=tag)`` answers it with the index's shared
        empty inbox.
        """
        return self.index.instance_subs()

    def derive(self, key: Hashable, build: Callable[[InboxIndex], Any]) -> Any:
        """Memoize a derived view on this inbox's (possibly shared) index.

        Delegates to :meth:`InboxIndex.derive`; see there for the purity
        and namespacing contract.
        """
        return self.index.derive(key, build)

    def restricted_to(self, members: frozenset[NodeId]) -> "Inbox":
        """The sub-inbox of messages whose sender is in *members*.

        Returns *self* when no sender falls outside *members* — the
        common case for frozen-membership protocols after
        initialization, which keeps the round's shared index shared.
        Otherwise the restriction is cached per ``(index, members)``, so
        all recipients of a shared index restricting to one frozen
        membership share a single filtered sub-inbox.
        """
        if self.index.covered_by(members):
            return self
        return self.index.restricted(members)


def best_with_extra(
    tallies: Mapping[Hashable, frozenset[NodeId]],
    best: tuple[Hashable, int],
    payload: Hashable,
    extra: int,
) -> tuple[Hashable, int]:
    """Best ``(value, count)`` of *tallies* after granting *payload* ``extra``
    additional distinct supporters.

    The per-node half of the quorum-tally plane: *tallies* is a shared
    payload→senders mapping (insertion-ordered, e.g. from
    :meth:`Inbox.payload_sender_sets` or an :meth:`InboxIndex.derive`
    value) and *best* its precomputed maximum; the delta is a node's own
    substitution or ``⊥`` back-fill.  The extra supporters must be
    *disjoint* from every sender set in *tallies* — they stand in for
    members that sent nothing, which is what makes the count a pure
    addition.

    The result is exactly what rebuilding the merged tally from scratch
    would give, including the deterministic tie-break: highest count,
    then highest payload repr, then earliest first occurrence (a payload
    absent from *tallies* counts as appended last).
    """
    if extra <= 0:
        return best
    boosted = len(tallies.get(payload, ())) + extra
    base_value, base_count = best
    if base_count == 0 or payload == base_value:
        # Empty base, or the delta boosts the incumbent: no contest.
        return payload, boosted
    delta_key = (boosted, repr(payload))
    base_key = (base_count, repr(base_value))
    if delta_key > base_key:
        return payload, boosted
    if delta_key < base_key:
        return base_value, base_count
    # Exact tie (equal count *and* equal repr on distinct payloads):
    # replicate the insertion-order max of a full rebuild.
    winner: tuple[Hashable, int] | None = None
    winner_key: tuple[int, str] | None = None
    for value, senders in tallies.items():
        count = len(senders) + (extra if value == payload else 0)
        key = (count, repr(value))
        if winner_key is None or key > winner_key:
            winner_key = key
            winner = (value, count)
    if payload not in tallies and (winner_key is None or delta_key > winner_key):
        winner = (payload, boosted)
    assert winner is not None
    return winner
