"""Columnar round plane: struct-of-arrays storage for one round's messages.

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
  sends), then one scalar *direct row* per fresh direct message,
  appended past the broadcasts at delivery.  Views never copy the
  columns (pinned in DESIGN.md §4).
* :class:`ColumnarIndex` — the one inbox index: the query caches of
  :class:`~repro.sim.inbox.InboxIndex` over the columns and a row
  selection, the round's broadcasts or a **row view**.

Row views.  A round's rows are named by *row entries*: ``j >= 0`` is
scalar row ``j`` and ``~s`` is batch segment ``s`` (all of one batch's
payloads: one sender, one kind, one instance).  Every inbox is a
``ColumnarIndex``: the round's broadcasts, a recipient group's
broadcasts plus its direct rows, every single-axis sub-inbox of those —
the instance partition, the kind and sender buckets, a membership
restriction — bucketed in one pass per axis over its parent's entries,
and ``Inbox(messages)`` (a masked recipient's kept messages, the net
runtime's frames, a hand-built inbox), which appends each message as
one scalar row of private columns.  It answers sender sets, tallies
and surveys from the columns; a ``Message`` is built only for a
broadcast row that somebody iterates, at most once per round whichever
view asks first (:meth:`RoundColumns.messages`), and a scalar row
appended by :meth:`RoundColumns.add_direct` hands out the message it
was appended as.

Equivalence contract: every query answers exactly what a naive linear
scan over the view's messages answers, including the historical (count,
repr, first-occurrence-order) tie-break — pinned by the coherence
suites in ``tests/properties/`` and by the naive reference engine in
``tests/reference_engine.py``, which shares no index code with this
module and runs every spec ``tests/integration/test_differential.py``
draws from the registry node for node against the engine.
"""

from __future__ import annotations

from typing import Any, Collection, Hashable, Iterable, Iterator, Sequence

from repro.sim.inbox import Inbox, InboxIndex
from repro.sim.message import Message
from repro.types import NodeId

#: Query-key sentinel mirroring :mod:`repro.sim.inbox`.
_ANY = ...

#: Marker in the per-sender batch map: this (sender, kind, instance)
#: fell back to scalar staging (mixed batch/scalar traffic).
_SCALARIZED = object()

#: Row axes: what :meth:`RoundColumns.keys` reads for each row entry.
_SENDER, _KIND, _INSTANCE = 0, 1, 2


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
        self.payloads = self.staged_payloads = payloads
        #: Per original payload: staged (True) or an exact repeat; None
        #: when every payload stages.
        self.dup_flags: tuple[bool, ...] | None = None
        if len(set(payloads)) != len(payloads):
            self.staged_payloads = tuple(dict.fromkeys(payloads))
            seen: set = set()
            self.dup_flags = tuple(
                not (payload in seen or seen.add(payload))
                for payload in payloads
            )
        for payload in self.staged_payloads:
            # The intern table and its counters see every payload.
            plane.intern_payload(payload)
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
        #: Message objects actually built across the run: one per row
        #: somebody iterated, each row at most once per round — the
        #: honest "work done" counter next to the logical
        #: staged×recipients delivery figure.
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
    """One round's append-only struct-of-arrays message store.

    Scalar broadcasts append one entry to each of the four parallel
    columns; ``broadcast_many`` batches append one *segment* record
    ``(scalar_boundary, sender, batch)`` covering k logical sends.
    Delivery then appends each fresh direct message as one more scalar
    row past the broadcasts (:meth:`add_direct`).  Pinned invariant
    (DESIGN.md §4): columns are append-only within the round, the
    broadcast rows are frozen once delivery starts, and every view
    (indexes, row views, tallies) reads them in place and never copies.
    Whole-round reads (``len``, :meth:`rows`, :meth:`distinct_senders`)
    stop at the broadcast boundary: a direct row belongs only to the row
    views that name it.

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
        "direct_rows",
        "_dedup",
        "_sender_batches",
        "_sender_scalar_keys",
        "_rows",
        "_built",
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
        #: Scalar rows appended by delivery, past the broadcasts.
        self.direct_rows: int = 0
        #: (sender, kind_id, instance_id, payload) for every staged
        #: scalar row — the raw payload keeps Message value-equality
        #: dedup semantics.
        self._dedup: set[tuple] = set()
        #: (sender, kind_id, instance_id) -> [Batch, ...] | _SCALARIZED.
        self._sender_batches: dict[tuple, Any] = {}
        #: (sender, kind_id, instance_id) triples with at least one
        #: scalar row: a later batch on the same triple must fall back
        #: to scalar staging so cross-form duplicates are suppressed.
        self._sender_scalar_keys: set[tuple] = set()
        #: Every broadcast row entry in staging order (see :meth:`rows`).
        self._rows: list[int] | None = None
        #: Row entry -> its built messages (a Message per scalar row, a
        #: tuple per segment); a direct row holds its stamped message.
        self._built: dict[int, Any] = {}

    def __len__(self) -> int:
        """The round's broadcast rows (direct rows are not counted)."""
        return len(self.senders) - self.direct_rows + self.batch_rows

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

    def add_direct(self, message: Message) -> int:
        """Append one delivered direct message as a scalar row.

        The row stays out of the dedup keys, so :meth:`contains_message`
        still answers for broadcasts only, and it keeps the stamped
        message: iterating the row hands out that very object and builds
        nothing.  Returns the row number.
        """
        plane = self.plane
        row = len(self.senders)
        self.senders.append(message.sender)
        self.kind_ids.append(plane.intern_kind(message.kind))
        self.payload_ids.append(plane.intern_payload(message.payload))
        self.instance_ids.append(plane.intern_instance(message.instance))
        self.direct_rows += 1
        self._built[row] = message
        return row

    # ------------------------------------------------------------------
    # Row passes (read-only; broadcast rows are frozen once delivery
    # starts, and a direct row never changes once appended)
    # ------------------------------------------------------------------
    def _walk(self) -> Iterator[int]:
        """Broadcast row entries in exact staging order (segments
        interleave with scalar runs by their recorded scalar boundary)."""
        pos = 0
        for segment, (boundary, _, _) in enumerate(self.segments):
            yield from range(pos, boundary)
            yield ~segment
            pos = boundary
        yield from range(pos, len(self.senders) - self.direct_rows)

    def rows(self) -> list[int]:
        """Every broadcast row entry: one walk, kept for the round."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(self._walk())
        return rows

    def keys(self, rows: Sequence[int], axis: int) -> list:
        """Each entry's sender, kind id or instance id (by *axis*)."""
        column = (self.senders, self.kind_ids, self.instance_ids)[axis]
        segments = self.segments
        if axis == _SENDER:
            return [
                column[e] if e >= 0 else segments[~e][1] for e in rows
            ]
        if axis == _KIND:
            return [
                column[e] if e >= 0 else segments[~e][2].kind_id
                for e in rows
            ]
        return [
            column[e] if e >= 0 else segments[~e][2].instance_id
            for e in rows
        ]

    def select(
        self, rows: Sequence[int], axis: int, wanted: Collection
    ) -> list[int]:
        """The entries of *rows* whose *axis* key is in *wanted*."""
        return [
            entry
            for entry, key in zip(rows, self.keys(rows, axis))
            if key in wanted
        ]

    def partition(
        self, rows: Sequence[int], axis: int
    ) -> dict[int, list[int]]:
        """*rows* bucketed by *axis* key, in first-occurrence order."""
        keys = self.keys(rows, axis)
        if keys and keys.count(keys[0]) == len(keys):
            return {keys[0]: rows}  # one bucket: the rows themselves
        buckets: dict[int, list[int]] = {}
        for entry, key in zip(rows, keys):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)
        return buckets

    def distinct_senders(self) -> frozenset[NodeId]:
        """Senders of the round's broadcasts."""
        senders = set(self.senders[: len(self.senders) - self.direct_rows])
        senders.update(sender for _, sender, _ in self.segments)
        return frozenset(senders)

    def tally(
        self, rows: Sequence[int]
    ) -> dict[Hashable, frozenset[NodeId]]:
        """payload -> distinct senders over *rows*, in first-occurrence
        order — exactly a linear scan over their messages.

        Segment-only rows (an echo round) group by canonical batch, so
        they cost O(senders + payloads), not O(senders x payloads), and
        every payload of a batch shares one sender frozenset, which the
        quorum plane's threshold caches key on by identity.
        """
        segments = self.segments
        if all(entry < 0 for entry in rows):
            # Batches in first-occurrence order reproduce the stream's
            # first-occurrence payload order.
            by_batch: dict[Batch, list[NodeId]] = {}
            for entry in rows:
                _, sender, batch = segments[~entry]
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
        payloads = self.plane.payloads
        payload_ids = self.payload_ids
        senders = self.senders
        for entry in rows:
            if entry >= 0:
                payload = payloads[payload_ids[entry]]
                group = grouped.get(payload)
                if group is None:
                    grouped[payload] = {senders[entry]}
                else:
                    group.add(senders[entry])
            else:
                _, sender, batch = segments[~entry]
                for payload in batch.staged_payloads:
                    grouped.setdefault(payload, set()).add(sender)
        return {
            payload: frozenset(group)
            for payload, group in grouped.items()
        }

    def messages(self, rows: Sequence[int]) -> tuple[Message, ...]:
        """The messages of *rows*, each row built at most once a round."""
        built = self._built
        plane = self.plane
        out: list[Message] = []
        fresh = 0
        for entry in rows:
            if entry >= 0:
                message = built.get(entry)
                if message is None:
                    message = built[entry] = Message(
                        self.senders[entry],
                        plane.kinds[self.kind_ids[entry]],
                        plane.payloads[self.payload_ids[entry]],
                        plane.instances[self.instance_ids[entry]],
                    )
                    fresh += 1
                out.append(message)
            else:
                group = built.get(entry)
                if group is None:
                    _, sender, batch = self.segments[~entry]
                    kind, instance = batch.kind, batch.instance
                    group = built[entry] = tuple(
                        Message(sender, kind, payload, instance)
                        for payload in batch.staged_payloads
                    )
                    fresh += len(group)
                out.extend(group)
        plane.messages_materialized += fresh
        return tuple(out)


class ColumnarIndex(InboxIndex):
    """An inbox index over one round's columns and a row selection.

    ``rows=None`` is the round's broadcasts (what every recipient
    without direct messages shares); otherwise *rows* is a row view's
    entry list — a sub-inbox, a recipient group's broadcasts plus its
    direct rows, or every row of private columns (:meth:`of`).  Sender
    sets, payload tallies, surveys, sizes and the single-axis
    sub-inboxes (instance partition, kind and sender buckets,
    restrictions) are passes over the columns, and the sub-inboxes are
    row views again.  :attr:`messages` builds message objects only for
    the rows asked for.
    """

    __slots__ = ("_cols", "_rows", "_parts", "_messages")

    def __init__(self, cols: RoundColumns, rows: Sequence[int] | None = None):
        super().__init__()
        self._cols = cols
        self._rows = rows
        #: axis -> {key id: row entries}, one pass per axis on demand.
        self._parts: dict[int, dict[int, list[int]]] = {}
        self._messages: tuple[Message, ...] | None = None

    @classmethod
    def of(cls, messages: Iterable[Message]) -> "ColumnarIndex":
        """A row view of private columns: one scalar row per message, in
        order, duplicates kept, each row holding its message object."""
        cols = ColumnarPlane().new_round()
        return cls(cols, [cols.add_direct(message) for message in messages])

    @property
    def messages(self) -> tuple[Message, ...]:
        """This view's messages, built on first demand."""
        built = self._messages
        if built is None:
            built = self._messages = self._cols.messages(self._entries())
        return built

    def _entries(self) -> Sequence[int]:
        rows = self._rows
        return self._cols.rows() if rows is None else rows

    def _partition(self, axis: int) -> dict[int, list[int]]:
        part = self._parts.get(axis)
        if part is None:
            part = self._parts[axis] = self._cols.partition(
                self._entries(), axis
            )
        return part

    def _rows_of(self, kind: str | None, instance: Any) -> Sequence[int]:
        """The entries of *kind* (any, for None) and of *instance*
        (any, for ``...``)."""
        plane = self._cols.plane
        if kind is None:
            if instance is _ANY:
                return self._entries()
            iid = plane.instance_id_of(instance)
            return self._partition(_INSTANCE).get(iid, ())
        rows = self._partition(_KIND).get(plane.kind_id_of(kind), ())
        if instance is _ANY or not rows:
            return rows
        iid = plane.instance_id_of(instance)
        return self._cols.select(rows, _INSTANCE, (iid,))

    def message_count(self) -> int:
        """Rows (a segment counts its payloads); :class:`Inbox` caches it."""
        rows = self._rows
        if rows is None:
            return len(self._cols)
        segments = self._cols.segments
        return sum(1 if e >= 0 else len(segments[~e][2]) for e in rows)

    # -- counting passes (the InboxIndex caches call these once) --------
    def _distinct_senders(self) -> frozenset[NodeId]:
        cols = self._cols
        if self._rows is None:
            return cols.distinct_senders()
        return frozenset(cols.keys(self._rows, _SENDER))

    def _senders_matching(
        self, kind: str | None, payload: Any, instance: Any
    ) -> frozenset[NodeId]:
        if payload is _ANY:
            rows = self._rows_of(kind, instance)
            return frozenset(self._cols.keys(rows, _SENDER))
        if kind is None:
            tally = self._cols.tally(self._rows_of(None, instance))
        else:
            tally = self.payload_senders(kind, instance)
        return tally.get(payload, frozenset())

    def _tally(
        self, kind: str, instance: Any
    ) -> dict[Hashable, frozenset[NodeId]]:
        return self._cols.tally(self._rows_of(kind, instance))

    def _kind_set(self) -> frozenset[str]:
        names = self._cols.plane.kinds
        return frozenset(names[kid] for kid in self._partition(_KIND))

    def _instance_buckets(self) -> dict[Hashable, list[int]]:
        names = self._cols.plane.instances
        return {
            names[iid]: rows
            for iid, rows in self._partition(_INSTANCE).items()
        }

    # -- row views ------------------------------------------------------
    def _view(self, rows: Sequence[int]) -> Inbox:
        return Inbox(index=ColumnarIndex(self._cols, rows))

    def sub_by_kind(self, kind: str) -> Inbox:
        kid = self._cols.plane.kind_id_of(kind)
        return self._sub(("kind", kind), self._partition(_KIND).get(kid, ()))

    def sub_by_sender(self, sender: NodeId) -> Inbox:
        # One select per sender asked for, not a whole sender partition:
        # a round's readers ask for one coordinator, not for everyone.
        key = ("sender", sender)
        sub = self._subs.get(key)
        if sub is None:
            rows = self._cols.select(self._entries(), _SENDER, (sender,))
            sub = self._subs[key] = self._sub(key, rows)
        return sub

    def _restriction(self, members: frozenset[NodeId]) -> Inbox:
        return self._view(self._cols.select(self._entries(), _SENDER, members))
