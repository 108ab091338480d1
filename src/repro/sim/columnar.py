"""Columnar round plane: struct-of-arrays storage for broadcast rounds.

The all-broadcast hot path used to allocate one
:class:`~repro.sim.message.Message` per logical send per round.  At
n = 10⁴ nodes that is 10⁴ objects per round before a single protocol
runs — and every query over them re-hashes the same payloads.  The
columnar plane replaces the per-message objects with four parallel
columns (sender, kind-id, payload-id, instance-id; plain lists of small
ints) plus a *payload intern table*, so staging one broadcast is a
handful of list appends and every tally is a counting pass over
interned ids.

Three pieces:

* :class:`ColumnarPlane` — per-network intern tables (payloads, kinds,
  instances, canonical broadcast batches).  Interning follows the same
  value-equality a ``dict``-based tally over message objects has: the
  first object seen for a value becomes canonical, exactly like the
  first occurrence kept as a dict key.
* :class:`RoundColumns` — one round's append-only store: scalar columns
  for individual broadcasts plus *batch segments* for
  ``broadcast_many`` fan-outs (one segment entry covers k logical
  sends).  Columns are append-only within a round and frozen at
  delivery; views never copy them (pinned in DESIGN.md §4).
* :class:`ColumnarIndex` — an :class:`~repro.sim.inbox.InboxIndex`
  whose sender sets, payload tallies and surveys are counting passes
  over the columns; ``messages`` materializes lazily only when a
  consumer genuinely iterates message objects (JSONL sinks, recorders,
  per-kind and per-instance bucket filters).

Equivalence contract: every query answers exactly what a plain
:class:`~repro.sim.inbox.InboxIndex` over the same messages answers,
including the historical (count, repr, first-occurrence-order)
tie-break — pinned by the coherence suites in ``tests/properties/`` and
by the naive reference engine in ``tests/reference_engine.py``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Hashable, Iterator, Mapping, Sequence

from repro.sim.inbox import InboxIndex
from repro.sim.message import Message
from repro.types import NodeId

#: Query-key sentinel mirroring :mod:`repro.sim.inbox`.
_ANY = ...

#: Marker in the per-sender batch map: this (sender, kind, instance)
#: fell back to scalar staging (mixed batch/scalar traffic).
_SCALARIZED = object()


class Batch:
    """A canonical interned broadcast batch: one kind/instance, k payloads.

    Registered once per distinct ``(kind, payloads, instance)`` value;
    every sender broadcasting the same batch stages one O(1) segment
    referencing this object.  ``staged_payloads`` is the payload tuple
    with exact duplicates removed in first-occurrence order — the same
    messages the expanded scalar sends would have staged.
    """

    __slots__ = (
        "kind",
        "instance",
        "payloads",
        "staged_payloads",
        "payload_ids",
        "kind_id",
        "instance_id",
        "dup_flags",
    )

    def __init__(
        self,
        plane: "ColumnarPlane",
        kind: str,
        payloads: tuple[Hashable, ...],
        instance: Hashable,
    ):
        self.kind = kind
        self.instance = instance
        self.payloads = payloads
        staged = payloads
        dup_flags: tuple[bool, ...] | None = None
        if len(set(payloads)) != len(payloads):
            unique = dict.fromkeys(payloads)
            staged = tuple(unique)
            seen: set = set()
            flags = []
            for payload in payloads:
                fresh = payload not in seen
                seen.add(payload)
                flags.append(fresh)
            dup_flags = tuple(flags)
        self.staged_payloads = staged
        self.dup_flags = dup_flags
        self.payload_ids = tuple(
            plane.intern_payload(p) for p in staged
        )
        self.kind_id = plane.intern_kind(kind)
        self.instance_id = plane.intern_instance(instance)

    def __len__(self) -> int:
        return len(self.staged_payloads)


class ColumnarPlane:
    """Per-network intern tables shared by every round's columns.

    Interning is keyed by *value equality* — the exact semantics of a
    dict keyed on the payloads — so the first object seen for a
    value becomes the canonical one for the rest of the run.  The
    tables only grow; ids are stable across rounds, which is what lets
    tallies in later rounds reuse earlier counting passes' ids.
    """

    __slots__ = (
        "payloads",
        "kinds",
        "instances",
        "payload_intern_hits",
        "messages_materialized",
        "_payload_ids",
        "_kind_ids",
        "_instance_ids",
        "_batches",
        "_batch_aliases",
    )

    def __init__(self) -> None:
        #: id -> canonical payload object (position == intern id).
        self.payloads: list[Hashable] = []
        self.kinds: list[str] = []
        self.instances: list[Hashable] = []
        #: Lookups that found an existing entry (the interning win the
        #: benchmarks otherwise only show as timing).
        self.payload_intern_hits: int = 0
        #: Message objects actually built across the run (each round's
        #: columns materialize at most once, and only when somebody
        #: iterates messages) — the honest "work done" counter next to
        #: the logical staged×recipients delivery figure.
        self.messages_materialized: int = 0
        self._payload_ids: dict[Hashable, int] = {}
        self._kind_ids: dict[str, int] = {}
        self._instance_ids: dict[Hashable, int] = {}
        #: (kind, payloads, instance) -> canonical Batch.
        self._batches: dict[tuple, Batch] = {}
        #: id(payload_tuple) -> (referent, Batch): identity fast path
        #: for the shared tuples the quorum plane hands every node.
        #: Serves the round that derived the tuple and is cleared by
        #: :meth:`new_round`, so however a protocol builds its payloads
        #: the plane never pins more than one round's tuples.
        self._batch_aliases: dict[int, tuple[tuple, Batch]] = {}

    @property
    def unique_payloads(self) -> int:
        return len(self.payloads)

    def intern_payload(self, payload: Hashable) -> int:
        ids = self._payload_ids
        pid = ids.get(payload)
        if pid is None:
            pid = len(self.payloads)
            self.payloads.append(payload)
            ids[payload] = pid
        else:
            self.payload_intern_hits += 1
        return pid

    def intern_kind(self, kind: str) -> int:
        ids = self._kind_ids
        kid = ids.get(kind)
        if kid is None:
            kid = len(self.kinds)
            self.kinds.append(kind)
            ids[kind] = kid
        return kid

    def intern_instance(self, instance: Hashable) -> int:
        ids = self._instance_ids
        iid = ids.get(instance)
        if iid is None:
            iid = len(self.instances)
            self.instances.append(instance)
            ids[instance] = iid
        return iid

    def kind_id_of(self, kind: str) -> int | None:
        return self._kind_ids.get(kind)

    def instance_id_of(self, instance: Hashable) -> int | None:
        return self._instance_ids.get(instance)

    def intern_batch(
        self,
        kind: str,
        payloads: tuple[Hashable, ...],
        instance: Hashable,
    ) -> Batch:
        """The canonical batch for this fan-out (identity fast path).

        Nodes broadcasting the round's shared payload tuple (the echo
        decision's ``echo``, the sorted-announcers tuple) hit the id()
        alias and skip hashing the tuple entirely: one node per round
        pays the O(k) hash, not every sender.  Every tuple seen is
        aliased, not only a batch's canonical one — a later round's
        tuple that *equals* an earlier batch is never canonical.  The
        alias still has to agree on kind and instance: one tuple object
        may be fanned out under several instance tags.
        """
        alias = self._batch_aliases.get(id(payloads))
        if alias is not None and alias[0] is payloads:
            batch = alias[1]
            if batch.kind == kind and batch.instance == instance:
                return batch
        key = (kind, payloads, instance)
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = Batch(
                self, kind, payloads, instance
            )
        self._batch_aliases[id(payloads)] = (payloads, batch)
        return batch

    def new_round(self) -> "RoundColumns":
        self._batch_aliases.clear()
        return RoundColumns(self)


class RoundColumns:
    """One round's append-only struct-of-arrays broadcast store.

    Scalar broadcasts append one entry to each of the four parallel
    columns; ``broadcast_many`` batches append one *segment* record
    ``(scalar_boundary, sender, batch)`` covering k logical sends.
    Pinned invariant (DESIGN.md §4): columns are append-only within the
    round and frozen once delivery starts; every view (indexes, lazy
    message sequences, tallies) reads them in place and never copies.

    Duplicate suppression is the model's per-round Message-set rule
    exactly: a (sender, kind, payload, instance) already staged this
    round — scalar or inside one of the sender's batches — is dropped.
    """

    __slots__ = (
        "plane",
        "senders",
        "kind_ids",
        "payload_ids",
        "instance_ids",
        "segments",
        "batch_rows",
        "_dedup",
        "_sender_batches",
        "_scalar_ki",
        "_sender_scalar_keys",
        "_materialized",
    )

    def __init__(self, plane: ColumnarPlane) -> None:
        self.plane = plane
        self.senders: list[NodeId] = []
        self.kind_ids: list[int] = []
        self.payload_ids: list[int] = []
        self.instance_ids: list[int] = []
        #: (scalar rows staged before this segment, sender, batch).
        self.segments: list[tuple[int, NodeId, Batch]] = []
        #: Logical rows contributed by segments (sum of batch lengths).
        self.batch_rows: int = 0
        #: (sender, kind_id, instance_id, payload) for every staged
        #: scalar row — the raw payload keeps Message value-equality
        #: dedup semantics.
        self._dedup: set[tuple] = set()
        #: (sender, kind_id, instance_id) -> [Batch, ...] | _SCALARIZED.
        self._sender_batches: dict[tuple, Any] = {}
        #: Distinct (kind_id, instance_id) pairs among scalar rows.
        self._scalar_ki: set[tuple[int, int]] = set()
        #: (sender, kind_id, instance_id) triples with at least one
        #: scalar row: a later batch on the same triple must fall back
        #: to scalar staging so cross-form duplicates are suppressed.
        self._sender_scalar_keys: set[tuple] = set()
        self._materialized: tuple[Message, ...] | None = None

    def __len__(self) -> int:
        return len(self.senders) + self.batch_rows

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage(
        self,
        sender: NodeId,
        kind: str,
        payload: Hashable,
        instance: Hashable,
    ) -> bool:
        """Stage one scalar broadcast; False when it is a duplicate."""
        plane = self.plane
        kid = plane.intern_kind(kind)
        iid = plane.intern_instance(instance)
        if self._sender_batches:
            prior = self._sender_batches.get((sender, kid, iid))
            if prior is not None and prior is not _SCALARIZED:
                self._scalarize(sender, kid, iid, prior)
        self._sender_scalar_keys.add((sender, kid, iid))
        key = (sender, kid, iid, payload)
        if key in self._dedup:
            return False
        self._dedup.add(key)
        self.senders.append(sender)
        self.kind_ids.append(kid)
        self.payload_ids.append(plane.intern_payload(payload))
        self.instance_ids.append(iid)
        self._scalar_ki.add((kid, iid))
        return True

    def stage_batch(
        self, sender: NodeId, batch: Batch
    ) -> tuple[int, tuple[bool, ...] | None]:
        """Stage one batch fan-out as a single segment.

        Returns ``(staged_count, per_payload_flags)`` over the batch's
        *original* payload tuple; ``flags`` is None when every payload
        staged (the hot path).
        """
        skey = (sender, batch.kind_id, batch.instance_id)
        prior = self._sender_batches.get(skey)
        if prior is None:
            if skey in self._sender_scalar_keys:
                # The sender already staged a scalar on this triple:
                # stage the batch scalar-by-scalar so an exact duplicate
                # of that earlier send is suppressed (dedup is by
                # message value, whatever form staged it).
                self._sender_batches[skey] = _SCALARIZED
                return self._stage_batch_scalar(sender, batch)
            self._sender_batches[skey] = [batch]
        elif prior is _SCALARIZED:
            return self._stage_batch_scalar(sender, batch)
        else:
            for earlier in prior:
                if earlier is batch:
                    # The sender re-broadcast the identical batch: every
                    # payload is a duplicate of its first staging.
                    return 0, (False,) * len(batch.payloads)
            # Distinct batches on one (sender, kind, instance): fall
            # back to scalar staging so segments stay overlap-free.
            self._scalarize(sender, batch.kind_id, batch.instance_id, prior)
            return self._stage_batch_scalar(sender, batch)
        self.segments.append((len(self.senders), sender, batch))
        self.batch_rows += len(batch.staged_payloads)
        if batch.dup_flags is None:
            return len(batch.payloads), None
        return len(batch.staged_payloads), batch.dup_flags

    def _scalarize(
        self, sender: NodeId, kid: int, iid: int, batches: list[Batch]
    ) -> None:
        """Fold a sender's staged batches into the scalar dedup set.

        Taken only when one sender mixes batches and scalars (or two
        distinct batches) on the same kind/instance — never on the
        all-correct hot path.  The already-staged segments stay where
        they are; this only arms exact duplicate detection for the
        sends that follow.
        """
        dedup = self._dedup
        for batch in batches:
            for payload in batch.staged_payloads:
                dedup.add((sender, kid, iid, payload))
        self._sender_batches[(sender, kid, iid)] = _SCALARIZED

    def _stage_batch_scalar(
        self, sender: NodeId, batch: Batch
    ) -> tuple[int, tuple[bool, ...] | None]:
        flags = []
        staged_count = 0
        for payload in batch.payloads:
            staged = self.stage(sender, batch.kind, payload, batch.instance)
            flags.append(staged)
            staged_count += staged
        return staged_count, tuple(flags)

    def contains_message(self, message: Message) -> bool:
        """Was an equal broadcast staged this round? (delivery dedup)."""
        plane = self.plane
        kid = plane.kind_id_of(message.kind)
        if kid is None:
            return False
        iid = plane.instance_id_of(message.instance)
        if iid is None:
            return False
        sender = message.sender
        if (sender, kid, iid, message.payload) in self._dedup:
            return True
        batches = self._sender_batches.get((sender, kid, iid))
        if batches is None or batches is _SCALARIZED:
            return False
        return any(
            message.payload in b.staged_payloads for b in batches
        )

    # ------------------------------------------------------------------
    # Views (read-only; the columns are frozen once delivery starts)
    # ------------------------------------------------------------------
    def _walk(self) -> Iterator[tuple]:
        """Yield ``("s", row_index)`` / ``("b", sender, batch)`` in exact
        staging order (segments interleave with scalar runs by their
        recorded scalar boundary)."""
        pos = 0
        for boundary, sender, batch in self.segments:
            while pos < boundary:
                yield ("s", pos)
                pos += 1
            yield ("b", sender, batch)
        total = len(self.senders)
        while pos < total:
            yield ("s", pos)
            pos += 1

    def materialize(self) -> tuple[Message, ...]:
        """The round's messages as objects, built once and cached."""
        cached = self._materialized
        if cached is None:
            plane = self.plane
            kinds = plane.kinds
            payloads = plane.payloads
            instances = plane.instances
            senders = self.senders
            kind_ids = self.kind_ids
            payload_ids = self.payload_ids
            instance_ids = self.instance_ids
            out: list[Message] = []
            for entry in self._walk():
                if entry[0] == "s":
                    j = entry[1]
                    out.append(
                        Message(
                            senders[j],
                            kinds[kind_ids[j]],
                            payloads[payload_ids[j]],
                            instances[instance_ids[j]],
                        )
                    )
                else:
                    _, sender, batch = entry
                    kind = batch.kind
                    instance = batch.instance
                    out.extend(
                        Message(sender, kind, payload, instance)
                        for payload in batch.staged_payloads
                    )
            cached = self._materialized = tuple(out)
            plane.messages_materialized += len(cached)
        return cached

    def _scalar_matches(self, kid: int, iid_filter: Any) -> Iterator[int]:
        """Scalar row indices with the given kind (and instance) id."""
        hits = [j for j, k in enumerate(self.kind_ids) if k == kid]
        if iid_filter is _ANY:
            return iter(hits)
        instance_ids = self.instance_ids
        return (j for j in hits if instance_ids[j] == iid_filter)

    def payload_tally(
        self, kind: str, instance: Any
    ) -> dict[Hashable, frozenset[NodeId]]:
        """payload -> distinct senders, in first-occurrence order.

        Matches a linear scan over the messages exactly, including
        ordering.
        The all-segments case groups by canonical batch so homogeneous
        echo rounds cost O(senders + payloads), not O(senders x
        payloads) — every tag then shares one sender frozenset, which
        the quorum plane's threshold caches key on by identity.
        """
        plane = self.plane
        kid = plane.kind_id_of(kind)
        if kid is None:
            return {}
        iid = _ANY
        if instance is not _ANY:
            iid = plane.instance_id_of(instance)
            if iid is None:
                return {}
        scalars_match = (
            any(k == kid for k, _ in self._scalar_ki)
            if iid is _ANY
            else (kid, iid) in self._scalar_ki
        )
        seg_match = [
            (sender, batch)
            for _, sender, batch in self.segments
            if batch.kind_id == kid
            and (iid is _ANY or batch.instance_id == iid)
        ]
        if not scalars_match:
            if not seg_match:
                return {}
            # Group segments by canonical batch (insertion order is the
            # batches' first occurrence, which reproduces the stream's
            # first-occurrence payload order).
            by_batch: dict[Batch, list[NodeId]] = {}
            for sender, batch in seg_match:
                group = by_batch.get(batch)
                if group is None:
                    by_batch[batch] = [sender]
                else:
                    group.append(sender)
            out: dict[Hashable, frozenset[NodeId]] = {}
            for batch, group in by_batch.items():
                shared = frozenset(group)
                for payload in batch.staged_payloads:
                    existing = out.get(payload)
                    out[payload] = (
                        shared if existing is None else existing | shared
                    )
            return out
        grouped: dict[Hashable, set[NodeId]] = {}
        payloads = plane.payloads
        payload_ids = self.payload_ids
        senders = self.senders
        kind_ids = self.kind_ids
        instance_ids = self.instance_ids
        for entry in self._walk():
            if entry[0] == "s":
                j = entry[1]
                if kind_ids[j] != kid:
                    continue
                if iid is not _ANY and instance_ids[j] != iid:
                    continue
                grouped.setdefault(payloads[payload_ids[j]], set()).add(
                    senders[j]
                )
            else:
                _, sender, batch = entry
                if batch.kind_id != kid:
                    continue
                if iid is not _ANY and batch.instance_id != iid:
                    continue
                for payload in batch.staged_payloads:
                    grouped.setdefault(payload, set()).add(sender)
        return {
            payload: frozenset(group)
            for payload, group in grouped.items()
        }

    def distinct_senders(self) -> frozenset[NodeId]:
        senders = set(self.senders)
        senders.update(sender for _, sender, _ in self.segments)
        return frozenset(senders)

    def kind_senders(self, kind: str, instance: Any) -> frozenset[NodeId]:
        plane = self.plane
        kid = plane.kind_id_of(kind)
        if kid is None:
            return frozenset()
        iid = _ANY
        if instance is not _ANY:
            iid = plane.instance_id_of(instance)
            if iid is None:
                return frozenset()
        senders = self.senders
        out = {senders[j] for j in self._scalar_matches(kid, iid)}
        out.update(
            sender
            for _, sender, batch in self.segments
            if batch.kind_id == kid
            and (iid is _ANY or batch.instance_id == iid)
        )
        return frozenset(out)

    def present_kinds(self) -> frozenset[str]:
        kinds = self.plane.kinds
        out = {kinds[kid] for kid, _ in self._scalar_ki}
        out.update(batch.kind for _, _, batch in self.segments)
        return frozenset(out)

    def instance_survey(self) -> tuple[Hashable, ...]:
        """Instance tags (None excluded) in first-occurrence order."""
        seen: set[int] = set()
        ordered: list[Hashable] = []
        instances = self.plane.instances
        instance_ids = self.instance_ids
        for entry in self._walk():
            if entry[0] == "s":
                iid = instance_ids[entry[1]]
            else:
                iid = entry[2].instance_id
            if iid not in seen:
                seen.add(iid)
                tag = instances[iid]
                if tag is not None:
                    ordered.append(tag)
        return tuple(ordered)

    def sender_rows(self, sender: NodeId) -> tuple[Message, ...]:
        """All of one sender's messages, in staging order, without
        materializing anyone else's."""
        plane = self.plane
        kinds = plane.kinds
        payloads = plane.payloads
        instances = plane.instances
        senders = self.senders
        out: list[Message] = []
        for entry in self._walk():
            if entry[0] == "s":
                j = entry[1]
                if senders[j] != sender:
                    continue
                out.append(
                    Message(
                        sender,
                        kinds[self.kind_ids[j]],
                        payloads[self.payload_ids[j]],
                        instances[self.instance_ids[j]],
                    )
                )
            elif entry[1] == sender:
                batch = entry[2]
                out.extend(
                    Message(sender, batch.kind, payload, batch.instance)
                    for payload in batch.staged_payloads
                )
        plane.messages_materialized += len(out)
        return tuple(out)


class ColumnarMessages(Sequence):
    """Lazy message sequence over one round's columns.

    ``len`` and truthiness are O(1) column reads; iteration (a JSONL
    sink rendering the delivery, a recorder) materializes the round's
    shared message tuple once and caches it on the columns — the same
    tuple the :class:`ColumnarIndex` exposes, so nothing is built
    twice.  This is what :class:`~repro.obs.events.InboxDelivered`
    carries for recipients of the shared broadcasts; its wire shape (a
    sequence of messages) is that of any other delivery.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols: RoundColumns):
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols)

    def __bool__(self) -> bool:
        return len(self._cols) > 0

    def __iter__(self) -> Iterator[Message]:
        return iter(self._cols.materialize())

    def __getitem__(self, item):
        return self._cols.materialize()[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarMessages):
            other = other._cols.materialize()
        if isinstance(other, (tuple, list)):
            return self._cols.materialize() == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._cols.materialize())


class ColumnarIndex(InboxIndex):
    """An inbox index whose answers are counting passes over columns.

    Drop-in compatible with :class:`~repro.sim.inbox.InboxIndex`: the
    query methods that drive the paper's quorum counting (sender sets,
    payload tallies, surveys, per-sender buckets) read the columns
    directly; anything that genuinely needs message objects (per-kind
    bucket filters, the per-round instance partition, restrictions,
    layering) falls through to the base implementation via the lazily
    materialized ``messages`` tuple — one staging-order pass per round,
    however many kinds or instances are then asked for.
    """

    __slots__ = ("_cols", "_by_sender_cols")

    def __init__(self, cols: RoundColumns):
        super().__init__(())
        # Unset the messages slot: reads fall into __getattr__, which
        # materializes on first genuine demand and re-fills the slot.
        del self.messages
        self._cols = cols
        self._by_sender_cols: dict[NodeId, tuple[Message, ...]] = {}

    def __getattr__(self, name: str):
        if name == "messages":
            materialized = self._cols.materialize()
            self.messages = materialized
            return materialized
        raise AttributeError(name)

    @property
    def columns(self) -> RoundColumns:
        return self._cols

    def message_view(self) -> ColumnarMessages:
        return ColumnarMessages(self._cols)

    # -- counting passes ------------------------------------------------
    @property
    def all_senders(self) -> frozenset[NodeId]:
        senders = self._all_senders
        if senders is None:
            senders = self._all_senders = self._cols.distinct_senders()
        return senders

    def sender_set(
        self, kind: str | None, payload: Any, instance: Any
    ) -> frozenset[NodeId]:
        if kind is None:
            if payload is _ANY and instance is _ANY:
                return self.all_senders
            return super().sender_set(kind, payload, instance)
        key = (kind, payload, instance)
        cached = self._sender_sets.get(key)
        if cached is None:
            if payload is _ANY:
                cached = self._cols.kind_senders(kind, instance)
            else:
                cached = self.payload_senders(kind, instance).get(
                    payload, frozenset()
                )
            self._sender_sets[key] = cached
        return cached

    def payload_senders(
        self, kind: str, instance: Any
    ) -> Mapping[Hashable, frozenset[NodeId]]:
        key = (kind, instance)
        cached = self._payload_senders.get(key)
        if cached is None:
            cached = self._payload_senders[key] = MappingProxyType(
                self._cols.payload_tally(kind, instance)
            )
        return cached

    # -- surveys --------------------------------------------------------
    @property
    def all_kinds(self) -> frozenset[str]:
        kinds = self._kinds
        if kinds is None:
            kinds = self._kinds = self._cols.present_kinds()
        return kinds

    @property
    def all_instances(self) -> frozenset[Hashable]:
        instances = self._instances
        if instances is None:
            instances = self._instances = frozenset(
                self.instance_tags()
            )
        return instances

    def instance_tags(self) -> tuple[Hashable, ...]:
        tags = self._instance_tags
        if tags is None:
            tags = self._instance_tags = self._cols.instance_survey()
        return tags

    # -- one sender's bucket without whole-round materialization --------
    def sender_bucket(self, sender: NodeId) -> tuple[Message, ...]:
        if self._by_sender is not None:
            # Someone already materialized the full bucket map.
            return self._by_sender.get(sender, ())
        bucket = self._by_sender_cols.get(sender)
        if bucket is None:
            bucket = self._by_sender_cols[sender] = self._cols.sender_rows(
                sender
            )
        return bucket
