"""Randomized coherence check: indexed Inbox queries vs naive scans.

Every :class:`~repro.sim.inbox.Inbox` query routes through a lazily
built — possibly shared, possibly a row view of a round's columns —
``InboxIndex``.  The contract is that indexing is invisible: for any
message multiset (duplicate senders, exact duplicate messages, instance
tags, direct rows past the broadcasts, any cache-priming order) every
query returns exactly what a naive linear scan over the message tuple
returns.

Randomization is seeded through :func:`repro.sim.rng.make_rng`, so every
failure here replays byte-for-byte from its seed.
"""

from repro.core.consensus import EarlyConsensus
from repro.core.parallel_consensus import namespace_view
from repro.scenario import RunSpec, run_spec
from repro.sim.columnar import ColumnarIndex, ColumnarPlane, RoundColumns
from repro.sim.inbox import Inbox, InboxIndex
from repro.sim.lossy import LossyNetwork
from repro.sim.message import Message, Send
from repro.sim.network import SyncNetwork
from repro.sim.node import Protocol
from repro.sim.rng import make_rng

from tests.naive_inbox import naive_best, naive_senders, naive_tallies
from tests.reference_engine import assert_matches_reference, per_send_events

KINDS = ("echo", "input", "prefer")
PAYLOADS = (0, 1, "v", None)
INSTANCES = (None, "x", ("t", 1))
SENDERS = tuple(range(6))

#: The query matrix both implementations are evaluated over.
QUERY_KINDS = (None,) + KINDS
QUERY_PAYLOADS = (...,) + PAYLOADS
QUERY_INSTANCES = (...,) + INSTANCES


def random_messages(rng, size, instances=INSTANCES):
    """A message list with duplicate senders and exact duplicates."""
    out = []
    while len(out) < size:
        out.append(
            Message(
                sender=rng.choice(SENDERS),
                kind=rng.choice(KINDS),
                payload=rng.choice(PAYLOADS),
                instance=rng.choice(instances),
            )
        )
        if rng.random() < 0.2:
            out.append(rng.choice(out))
    return out[:size]


def assert_coherent(box, messages):
    """Run the full query matrix against the naive reference."""
    assert tuple(box) == tuple(messages)
    for kind in QUERY_KINDS:
        for payload in QUERY_PAYLOADS:
            for instance in QUERY_INSTANCES:
                expect = naive_senders(messages, kind, payload, instance)
                assert box.senders(kind, payload, instance) == expect
                assert box.count(kind, payload, instance) == len(expect)
                filtered = box.filter(kind, payload, instance)
                assert list(filtered) == [
                    m
                    for m in messages
                    if m.matches(kind, payload, instance)
                ]
    for kind in KINDS:
        for instance in QUERY_INSTANCES:
            tallies = naive_tallies(messages, kind, instance)
            counts = box.payload_counts(kind, instance)
            assert dict(counts) == {
                p: len(s) for p, s in tallies.items()
            }
            assert box.best_payload(kind, instance) == naive_best(
                messages, kind, instance
            )
    for sender in SENDERS:
        expect_msgs = [m for m in messages if m.sender == sender]
        assert list(box.from_sender(sender)) == expect_msgs
        assert box.received_from(sender) == bool(expect_msgs)
    assert box.kinds() == {m.kind for m in messages}
    assert box.instances() == {
        m.instance for m in messages if m.instance is not None
    }
    assert_partition_coherent(box, messages)
    assert_namespaces_coherent(box, messages)


def naive_inner_id(base_tag, wire_tag):
    """Machine *base_tag*'s instance id for *wire_tag*, None when the
    tag is outside its namespace — the per-tag reverse mapping every
    machine used to apply to every tag of every round."""
    if base_tag is None:
        return wire_tag
    if (
        isinstance(wire_tag, tuple)
        and len(wire_tag) == 2
        and wire_tag[0] == base_tag
    ):
        return wire_tag[1]
    return None


def assert_namespaces_coherent(box, messages):
    """The per-round namespace view vs the naive per-machine scan.

    For every namespace a machine could own — every tag present, every
    first half of a pair tag, ``None`` and a few absent ones — the view
    lists exactly the ``(inner_id, wire_tag)`` pairs the naive scan
    finds, in first-occurrence order, and has a key exactly when some
    message addresses the namespace (any message at all, for ``None``).
    """
    tags = list(
        dict.fromkeys(m.instance for m in messages if m.instance is not None)
    )
    namespaces = {None, "absent", ("to", 99), *tags}
    namespaces.update(
        tag[0] for tag in tags if isinstance(tag, tuple) and len(tag) == 2
    )
    view = namespace_view(box)
    assert set(view) <= namespaces
    for namespace in namespaces:
        expect = [
            (naive_inner_id(namespace, tag), tag)
            for tag in tags
            if naive_inner_id(namespace, tag) is not None
        ]
        assert list(view.get(namespace, ())) == expect
        if namespace is None:
            addressed = bool(messages)
        else:
            addressed = any(
                m.instance == namespace
                or naive_inner_id(namespace, m.instance) is not None
                or m.instance == (namespace, None)
                for m in messages
            )
        assert (namespace in view) == addressed
    if messages:
        assert namespace_view(box) is view  # memoized on the index
    try:
        view["mine"] = ()
    except TypeError:
        pass
    else:  # pragma: no cover - the assertion is the point
        raise AssertionError("the shared namespace view must be read-only")


def assert_partition_coherent(box, messages):
    """The per-round instance partition vs the naive scan.

    ``by_instance()`` holds one sub-inbox per tag present, in
    first-occurrence order; untagged messages sit under ``None`` (a
    bucket, but not a tag); every entry is the very object
    ``filter(instance=tag)`` returns; every absent tag is answered by
    one shared empty inbox that is not in the mapping.
    """
    naive = {}
    for m in messages:
        naive.setdefault(m.instance, []).append(m)
    partition = box.by_instance()
    assert list(partition) == list(naive)
    assert box.instance_tags() == tuple(
        tag for tag in naive if tag is not None
    )
    for tag, expect in naive.items():
        assert list(partition[tag]) == expect
        assert box.filter(instance=tag) is partition[tag]
        assert box.kinds(instance=tag) == {m.kind for m in expect}
    absent = box.filter(instance="no-such-instance")
    assert len(absent) == 0 and list(absent) == []
    assert box.filter(instance=("also", "absent")) is absent
    assert "no-such-instance" not in partition


class TestIndexCoherence:
    def test_indexed_queries_match_naive_scans(self):
        for seed in range(25):
            rng = make_rng(seed)
            messages = random_messages(rng, rng.randrange(0, 40))
            assert_coherent(Inbox(messages), messages)

    def test_cache_priming_order_is_irrelevant(self):
        # The index fills its caches on first demand; whichever query
        # arrives first (a tallying best_payload, a bucket filter, a
        # bare senders()) must leave every later answer unchanged.
        for seed in range(10):
            rng = make_rng(seed, salt=1)
            messages = random_messages(rng, 30)
            cold = Inbox(messages)
            primed = Inbox(messages)
            primed.best_payload("echo")
            primed.filter("input")
            primed.senders()
            primed.from_sender(0)
            assert_coherent(primed, messages)
            assert_coherent(cold, messages)

    def test_shared_index_views_agree(self):
        # Two Inbox views over one index (the engine's all-broadcast
        # path): queries on one prime caches the other then reuses, and
        # single-axis filters alias the very same sub-inbox object.
        for seed in range(10):
            rng = make_rng(seed, salt=2)
            messages = random_messages(rng, 30)
            index = Inbox(messages).index
            first = Inbox(index=index)
            second = Inbox(index=index)
            first.best_payload("echo")
            first.senders("input")
            assert first.filter("echo") is second.filter("echo")
            assert first.from_sender(3) is second.from_sender(3)
            assert_coherent(second, messages)

    def test_instance_partition_is_shared_and_read_only(self):
        # One mapping (and one sub-inbox per tag) per index, whichever
        # view asks first; recipients cannot write to it.
        messages = [
            Message(1, "echo", "m", "x"),
            Message(2, "echo", "m"),
            Message(3, "input", 0, "x"),
        ]
        index = Inbox(messages).index
        first, second = Inbox(index=index), Inbox(index=index)
        partition = first.by_instance()
        assert second.by_instance() is partition
        assert list(partition) == ["x", None]
        assert second.filter(instance="x") is partition["x"]
        assert second.filter(instance=None) is partition[None]
        assert first.instance_tags() == ("x",)
        try:
            partition["y"] = Inbox()
        except TypeError:
            pass
        else:  # pragma: no cover - the assertion is the point
            raise AssertionError("the shared partition must be read-only")

    def test_every_empty_bucket_is_one_shared_inbox(self):
        box = Inbox([Message(1, "echo", "m", "x")])
        empty = box.filter(instance="absent")
        assert box.filter("no-such-kind") is empty
        assert box.from_sender(99) is empty
        assert empty is not box and len(empty) == 0
        # ... per index: another round's empties are its own.
        assert Inbox([Message(1, "echo", "m")]).from_sender(99) is not empty


#: Tags the total-ordering machines put on the wire, next to ones they
#: must not mistake for their own: machine 7's candidate-set tag, two of
#: its instances, machine 8's instance, an instance id that is itself a
#: pair, "no inner id" under machine 7, a pair under the reserved
#: ``None`` namespace, bare and untagged.
NAMESPACED = (
    None,
    "bare",
    ("to", 7),
    (("to", 7), "u"),
    (("to", 7), ("pair", 1)),
    (("to", 8), "u"),
    (("to", 7), None),
    (None, "u"),
    ("to", 7, "u"),
)


class TestNamespaceView:
    def test_object_layered_and_restricted_indexes(self):
        for seed in range(15):
            rng = make_rng(seed, salt=30)
            messages = random_messages(rng, rng.randrange(0, 40), NAMESPACED)
            extras = random_messages(rng, rng.randrange(1, 8), NAMESPACED)
            box = Inbox(messages)
            assert_coherent(box, messages)
            # A recipient group's inbox: broadcast rows, then direct rows.
            stream = random_stream(rng, rng.randrange(0, 40), NAMESPACED)
            assert_coherent(*group_inbox(stream, extras))
            members = frozenset(rng.sample(SENDERS, 3))
            assert_coherent(
                box.restricted_to(members),
                [m for m in messages if m.sender in members],
            )

    def test_columnar_index_and_its_restriction(self):
        for seed in range(15):
            rng = make_rng(seed, salt=31)
            stream = random_stream(rng, rng.randrange(0, 40), NAMESPACED)
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            box = Inbox(index=ColumnarIndex(cols))
            # The view is a pass over the tag survey: no message objects.
            namespace_view(box)
            assert not cols._built
            assert_coherent(box, messages)
            members = frozenset(rng.sample(SENDERS, 3))
            assert_coherent(
                Inbox(index=ColumnarIndex(cols)).restricted_to(members),
                [m for m in messages if m.sender in members],
            )

    def test_the_cases_one_machine_has_to_tell_apart(self):
        box = Inbox(
            Message(sender, "input", 0, tag)
            for sender, tag in enumerate(NAMESPACED)
        )
        view = namespace_view(box)
        assert view[("to", 7)] == (
            ("u", (("to", 7), "u")),
            (("pair", 1), (("to", 7), ("pair", 1))),
        )
        assert view[("to", 8)] == (("u", (("to", 8), "u")),)
        assert view["to"] == ((7, ("to", 7)),)
        assert view["bare"] == () and view[("to", 7, "u")] == ()
        assert view[None] == tuple(
            (tag, tag) for tag in NAMESPACED if tag is not None
        )
        assert ("to", 9) not in view and "u" not in view

    def test_untagged_traffic_addresses_only_the_unnamespaced(self):
        view = namespace_view(Inbox([Message(1, "echo", 2)]))
        assert dict(view) == {None: ()}
        assert dict(namespace_view(Inbox())) == {}


# ----------------------------------------------------------------------
# Columnar round plane: staged columns vs per-message objects.
# ----------------------------------------------------------------------
def random_stream(rng, size, instances=INSTANCES):
    """A staging stream mixing scalar broadcasts, batched fan-outs,
    exact repeats, and batch/scalar collisions on one sender."""
    stream = []
    while len(stream) < size:
        sender = rng.choice(SENDERS)
        kind = rng.choice(KINDS)
        instance = rng.choice(instances)
        if rng.random() < 0.35:
            payloads = tuple(
                rng.choice(PAYLOADS)
                for _ in range(rng.randrange(1, 5))
            )
            stream.append(("batch", sender, kind, payloads, instance))
        else:
            stream.append(
                ("scalar", sender, kind, rng.choice(PAYLOADS), instance)
            )
        if rng.random() < 0.2:
            stream.append(rng.choice(stream))
    return stream[:size]


def stage_stream(stream, plane=None):
    """Stage a stream into fresh columns, exactly as the engine would."""
    plane = plane or ColumnarPlane()
    cols = plane.new_round()
    for entry in stream:
        if entry[0] == "scalar":
            _, sender, kind, payload, instance = entry
            cols.stage(sender, kind, payload, instance)
        else:
            _, sender, kind, payloads, instance = entry
            cols.stage_batch(
                sender, plane.intern_batch(kind, payloads, instance)
            )
    return cols


def group_inbox(stream, extras, cols=None):
    """The engine's inbox for a recipient group whose fresh direct
    messages are *extras*: the row view of *stream*'s broadcasts plus
    one direct row per extra.  Returns ``(inbox, its messages)``."""
    cols = cols or stage_stream(stream)
    rows = cols.rows() + [cols.add_direct(m) for m in extras]
    return (
        Inbox(index=ColumnarIndex(cols, rows)),
        expected_messages(stream) + list(extras),
    )


def assert_counts_match(box, messages):
    """Every counting query of *box* (no iteration) against the naive
    scan of *messages*."""
    assert len(box) == len(messages) and bool(box) == bool(messages)
    assert box.senders() == naive_senders(messages)
    assert box.kinds() == {m.kind for m in messages}
    assert box.instance_tags() == tuple(
        dict.fromkeys(m.instance for m in messages if m.instance is not None)
    )
    assert list(box.by_instance()) == list(
        dict.fromkeys(m.instance for m in messages)
    )
    namespace_view(box)
    for kind in KINDS:
        assert box.has_kind(kind) == any(m.kind == kind for m in messages)
        for instance in QUERY_INSTANCES:
            assert box.senders(kind, ..., instance) == naive_senders(
                messages, kind, instance=instance
            )
            assert dict(box.payload_counts(kind, instance)) == {
                p: len(s)
                for p, s in naive_tallies(messages, kind, instance).items()
            }
            assert box.best_payload(kind, instance) == naive_best(
                messages, kind, instance
            )
        for payload in PAYLOADS:
            assert box.count(kind, payload) == len(
                naive_senders(messages, kind, payload)
            )


def expected_messages(stream):
    """The model's staging outcome: per-round Message-set dedup over
    the expanded stream, in staging order."""
    seen, out = set(), []
    for entry in stream:
        if entry[0] == "scalar":
            _, sender, kind, payload, instance = entry
            expanded = [Message(sender, kind, payload, instance)]
        else:
            _, sender, kind, payloads, instance = entry
            expanded = [
                Message(sender, kind, p, instance) for p in payloads
            ]
        for message in expanded:
            if message not in seen:
                seen.add(message)
                out.append(message)
    return out


class TestColumnarCoherence:
    def test_columnar_index_matches_object_path(self):
        for seed in range(25):
            rng = make_rng(seed, salt=20)
            stream = random_stream(rng, rng.randrange(0, 40))
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            assert list(ColumnarIndex(cols).messages) == messages
            assert_coherent(Inbox(index=ColumnarIndex(cols)), messages)
            # The plain object index over the same messages agrees too
            # (both sides reduce to one oracle).
            assert_coherent(Inbox(messages), messages)

    def test_counting_queries_never_materialize(self):
        # Sender sets, tallies, and surveys are counting passes over the
        # columns; message objects exist only after someone iterates.
        for seed in range(10):
            rng = make_rng(seed, salt=21)
            stream = random_stream(rng, 30)
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            box = Inbox(index=ColumnarIndex(cols))
            # kind=None with concrete filters falls back to message
            # objects, so the counting-only guarantee covers per-kind
            # queries plus the unfiltered sender census.
            assert box.senders() == naive_senders(messages)
            for kind in KINDS:
                for instance in QUERY_INSTANCES:
                    expect = naive_senders(
                        messages, kind, instance=instance
                    )
                    assert box.senders(kind, ..., instance) == expect
            for kind in KINDS:
                tallies = naive_tallies(messages, kind)
                assert dict(box.index.payload_senders(kind, ...)) == {
                    p: frozenset(s) for p, s in tallies.items()
                }
                assert box.best_payload(kind) == naive_best(
                    messages, kind
                )
            assert box.index.instance_tags() == tuple(
                dict.fromkeys(
                    m.instance
                    for m in messages
                    if m.instance is not None
                )
            )
            # ... and so is every row view: each instance of the
            # partition, each kind bucket, each kind inside an instance,
            # and a membership restriction of each.
            members = frozenset(SENDERS[:3])
            for tag, view in box.by_instance().items():
                bucket = [m for m in messages if m.instance == tag]
                assert_counts_match(view, bucket)
                for kind in KINDS:
                    assert_counts_match(
                        view.filter(kind),
                        [m for m in bucket if m.kind == kind],
                    )
                assert_counts_match(
                    view.restricted_to(members),
                    [m for m in bucket if m.sender in members],
                )
            for kind in KINDS:
                assert_counts_match(
                    box.filter(kind), [m for m in messages if m.kind == kind]
                )
            assert not cols._built
            # Full coherence afterwards: materializing later must agree
            # with everything the counting passes already answered.
            assert_coherent(box, messages)

    def test_cross_form_duplicate_suppression(self):
        # scalar-then-batch, batch-then-scalar, identical re-broadcast,
        # and two overlapping batches must all dedup by message value.
        streams = [
            [
                ("scalar", 1, "echo", "p", None),
                ("batch", 1, "echo", ("p", "q"), None),
            ],
            [
                ("batch", 1, "echo", ("p", "q"), None),
                ("scalar", 1, "echo", "p", None),
                ("scalar", 1, "echo", "r", None),
            ],
            [
                ("batch", 2, "echo", ("a", "b"), "x"),
                ("batch", 2, "echo", ("a", "b"), "x"),
            ],
            [
                ("batch", 3, "echo", ("a", "b"), None),
                ("batch", 3, "echo", ("b", "c"), None),
                ("batch", 4, "echo", ("a", "b"), None),
            ],
            [
                ("batch", 5, "echo", ("a", "a", "b"), None),
            ],
        ]
        for stream in streams:
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            assert list(ColumnarIndex(cols).messages) == messages
            assert_coherent(Inbox(index=ColumnarIndex(cols)), messages)

    def test_shared_payload_tuple_interns_one_batch(self):
        # The quorum plane hands every node the same tuple object; the
        # intern table must resolve them all to one canonical batch,
        # by identity or by value.
        plane = ColumnarPlane()
        shared = (1, 2, 3)
        first = plane.intern_batch("echo", shared, None)
        assert plane.intern_batch("echo", shared, None) is first
        assert plane.intern_batch("echo", (1, 2, 3), None) is first
        cols = plane.new_round()
        for sender in range(6):
            cols.stage_batch(sender, first)
        tally = ColumnarIndex(cols).payload_senders("echo", ...)
        assert tally == {
            1: frozenset(range(6)),
            2: frozenset(range(6)),
            3: frozenset(range(6)),
        }
        # Homogeneous rounds share one sender frozenset across tags.
        assert tally[1] is tally[2] is tally[3]

    def test_shared_payload_tuple_under_two_instances(self):
        # The identity alias must not outvote kind and instance: one
        # tuple object fanned out under two tags is two batches (the
        # alias used to hand back the first tag's batch, whose restaged
        # segment then dropped as a duplicate — messages lost).
        plane = ColumnarPlane()
        shared = ("p", "q")
        first = plane.intern_batch("echo", shared, "a")
        second = plane.intern_batch("echo", shared, "b")
        assert second is not first and second.instance == "b"
        assert plane.intern_batch("init", shared, "a").kind == "init"
        assert plane.intern_batch("echo", shared, "a") is first
        stream = [
            ("batch", 1, "echo", shared, "a"),
            ("batch", 1, "echo", shared, "b"),
        ]
        assert list(ColumnarIndex(stage_stream(stream)).messages) == (
            expected_messages(stream)
        )

    def test_partition_survives_after_the_fact_overlays(self):
        # The engine appends a group's direct rows to the round's
        # columns *after* other recipients already built (or did not
        # build) the broadcasts' partition; either way each group's
        # partition must match a flat rebuild, and the shared index must
        # keep seeing the broadcasts only.  Two groups share the direct
        # rows of the messages both were sent.
        for seed in range(10):
            for primed in (False, True):
                rng = make_rng(seed, salt=23)
                stream = random_stream(rng, 30)
                messages = expected_messages(stream)
                extras = tuple(random_messages(rng, rng.randrange(1, 8)))
                cols = stage_stream(stream)
                shared = ColumnarIndex(cols)
                if primed:
                    Inbox(index=shared).by_instance()
                direct = [cols.add_direct(m) for m in extras]
                first, second = (
                    Inbox(index=ColumnarIndex(cols, cols.rows() + rows))
                    for rows in (direct, direct[:2])
                )
                assert_partition_coherent(
                    second, messages + list(extras[:2])
                )
                assert_partition_coherent(first, messages + list(extras))
                assert_partition_coherent(Inbox(index=shared), messages)
                assert shared.message_count() == len(messages)

    def test_partition_passes_do_not_grow_with_instances(self, monkeypatch):
        # Count-based complexity: however many instances a round
        # carries and however many recipients read each of them, the
        # columns are walked once (the round's row numbering), and every
        # later pass reads one view's row entries: the whole round once
        # for the partition that is also the tag survey, then each
        # instance's own rows a bounded number of times — not once per
        # instance per recipient, and no message is built.
        walks, reads = [], []
        original_walk, original_keys = RoundColumns._walk, RoundColumns.keys

        def counting_walk(cols):
            entries = list(original_walk(cols))
            walks.append(len(entries))
            return iter(entries)

        def counting_keys(cols, rows, axis):
            reads.append(len(rows))
            return original_keys(cols, rows, axis)

        monkeypatch.setattr(RoundColumns, "_walk", counting_walk)
        monkeypatch.setattr(RoundColumns, "keys", counting_keys)

        def read_round(instances, senders=6, recipients=5):
            plane = ColumnarPlane()
            cols = plane.new_round()
            for tag in range(instances):
                for sender in range(senders):
                    cols.stage(sender, "input", sender % 2, ("id", tag))
                    cols.stage_batch(
                        sender,
                        plane.intern_batch(
                            "echo", (("p", tag), ("q", tag)), ("id", tag)
                        ),
                    )
            shared = ColumnarIndex(cols)
            walks.clear()
            reads.clear()
            for _ in range(recipients):
                box = Inbox(index=shared)
                assert len(box.instance_tags()) == instances
                for tag in range(instances):
                    tagged = box.filter(instance=("id", tag))
                    assert tagged.count("input") == senders
                    assert len(tagged) == 3 * senders
            staged_entries = instances * senders * 2
            assert walks == [staged_entries]
            assert sum(reads) <= 3 * staged_entries
            assert not cols._built
            return len(walks)

        few, many = read_round(instances=3), read_round(instances=48)
        assert few == many == 1

    def test_join_round_backfill_layering(self):
        # A joiner's direct messages become rows past the broadcasts
        # (the engine's join-round back-fill path): its row view must be
        # indistinguishable from indexing broadcasts+extras flat.
        for seed in range(10):
            rng = make_rng(seed, salt=22)
            stream = random_stream(rng, 25)
            cols = stage_stream(stream)
            messages = expected_messages(stream)
            extras = tuple(random_messages(rng, rng.randrange(1, 8)))
            shared = ColumnarIndex(cols)
            # A recipient of the shared index read one sender's bucket
            # first; the group's sender buckets must still be whole.
            Inbox(index=shared).from_sender(SENDERS[seed % len(SENDERS)])
            merged, expect = group_inbox(stream, extras, cols)
            assert_coherent(merged, expect)
            # Iterating a direct row hands out the stamped message.
            assert all(
                built is sent
                for built, sent in zip(list(merged)[len(messages):], extras)
            )
            # The shared view never sees the direct rows.
            assert_coherent(Inbox(index=shared), messages)


class TestRowViews:
    """Sub-inboxes of a columnar index are row views of its columns."""

    def test_every_view_answers_like_an_index_over_its_bucket(self):
        # Random streams mixing scalars, batches and cross-form
        # duplicates: each instance view, each kind view, and each kind
        # inside an instance answers the whole query matrix exactly as
        # the naive scan of its bucket — the oracle a plain InboxIndex
        # over that bucket is pinned to above.
        for seed in range(20):
            rng = make_rng(seed, salt=40)
            stream = random_stream(rng, rng.randrange(0, 40))
            messages = expected_messages(stream)
            box = Inbox(index=ColumnarIndex(stage_stream(stream)))
            for tag, view in box.by_instance().items():
                bucket = [m for m in messages if m.instance == tag]
                assert_coherent(view, bucket)
                for kind in KINDS:
                    assert_coherent(
                        view.filter(kind), [m for m in bucket if m.kind == kind]
                    )
                    assert box.filter(kind, instance=tag) is view.filter(kind)
            for kind in KINDS:
                assert_coherent(
                    box.filter(kind), [m for m in messages if m.kind == kind]
                )

    def test_iterating_a_view_builds_exactly_its_rows(self):
        for seed in range(15):
            rng = make_rng(seed, salt=41)
            stream = random_stream(rng, rng.randrange(1, 40))
            cols = stage_stream(stream)
            plane = cols.plane
            box = Inbox(index=ColumnarIndex(cols))
            views = list(box.by_instance().values())
            view = views[rng.randrange(len(views))]
            assert plane.messages_materialized == 0
            assert len(list(view)) == len(view)
            assert plane.messages_materialized == len(view)
            # A kind view inside it, and the view again, reuse the rows.
            for kind in KINDS:
                list(view.filter(kind))
            list(view)
            assert plane.messages_materialized == len(view)
            # The whole round afterwards builds only the rows left.
            assert list(box) == expected_messages(stream)
            assert plane.messages_materialized == len(box)
            for other in views:
                list(other)
            assert plane.messages_materialized == len(box)

    def test_interactive_consistency_builds_only_iterated_rows(self):
        # One parallel-consensus instance per node.  The engine used to
        # build every staged row (18 180 Message objects for this spec)
        # to bucket the instance partition; now it builds the rows a
        # protocol iterates: each node's report row (the ``report`` kind
        # bucket) and each instance's coordinator opinion
        # (``opinion_from``'s sender bucket), 60 apiece.
        result = run_spec(
            RunSpec(protocol="interactive-consistency", n=60, f=0, seed=3)
        )
        assert result.metrics.sends_total == 18180
        assert result.metrics.materialized_messages == 120 <= 180


# ----------------------------------------------------------------------
# Direct sends through the engine: scalar directs and multicasts vs the
# naive per-recipient reference engine.
# ----------------------------------------------------------------------
RECORDERS = tuple(range(10, 16))
DEPARTED = 16  # registered, removed before anything is staged
UNKNOWN = 99  # never registered
ADDRESSES = RECORDERS + SENDERS + (DEPARTED, UNKNOWN)


class Recorder(Protocol):
    """Correct node that keeps every inbox it is handed and says nothing."""

    def __init__(self):
        super().__init__()
        self.inboxes = {}

    def on_round(self, api, inbox):
        self.inboxes[api.round] = inbox


class Scripted:
    """Byzantine actor replaying a prepared list of sends in round 1."""

    def __init__(self, sends):
        self._sends = sends

    def on_round(self, view):
        return self._sends if view.round == 1 else ()


def random_script(rng, size):
    """One sender's round: broadcasts (scalar and batched), scalar
    directs and multicasts over a small value space, with entries
    re-listed verbatim so value-equal repeats of every form occur."""
    script = []
    while len(script) < size:
        kind = rng.choice(KINDS)
        payload = rng.choice(PAYLOADS)
        instance = rng.choice(INSTANCES)
        roll = rng.random()
        if roll < 0.2:
            script.append(Send(kind, (payload,), instance))
        elif roll < 0.35:
            payloads = tuple(
                rng.choice(PAYLOADS) for _ in range(rng.randrange(1, 4))
            )
            script.append(Send(kind, payloads, instance))
        elif roll < 0.55:
            script.append(
                Send(kind, (payload,), instance, (rng.choice(ADDRESSES),))
            )
        else:
            dests = tuple(
                rng.sample(ADDRESSES, rng.randrange(1, len(ADDRESSES)))
            )
            script.append(Send(kind, (payload,), instance, dests))
        if rng.random() < 0.25:
            script.append(rng.choice(script))
    return script[:size]


def populate(net, scripts):
    """Six recorders, one scripted Byzantine sender per script, and a
    node that departs before anything is staged."""
    for node in RECORDERS:
        net.add_correct(node, Recorder())
    for sender, script in scripts.items():
        net.add_byzantine(sender, Scripted(script))
    net.add_correct(DEPARTED, Recorder())
    net.remove(DEPARTED)
    return net


def run_scripts(scripts):
    """Stage every script in round 1, deliver in round 2.

    Returns ``(recorder inboxes, per-recipient send events)`` — the
    events at per-send granularity whichever form the engine emitted.
    """
    net = populate(SyncNetwork(), scripts)
    sent = per_send_events(net.bus)
    net.step()
    net.step()
    inboxes = {
        node: net.protocol_of(node).inboxes.get(2, Inbox())
        for node in RECORDERS
    }
    return inboxes, sent, net


class TestDirectFanOutCoherence:
    def test_engine_matches_per_recipient_oracle(self):
        for seed in range(30):
            rng = make_rng(seed, salt=24)
            scripts = {
                sender: random_script(rng, rng.randrange(0, 12))
                for sender in SENDERS
            }
            # Every send event with its staged flag and every delivered
            # message, against the model run one recipient at a time...
            engine, reference = assert_matches_reference(
                lambda network: populate(network(), scripts), 2, False
            )
            assert engine.metrics.sends_total == len(reference.sent)
            assert engine.metrics.staged_total == sum(
                row[-1] for row in reference.sent
            )
            # ... and the full query matrix over each engine inbox.
            for node in RECORDERS:
                assert_coherent(
                    engine.protocol_of(node).inboxes.get(2, Inbox()),
                    list(reference.delivered.get((2, node), ())),
                )

    def test_value_equal_multicasts_from_one_sender_collapse(self):
        twice = Send("echo", ("v",), None, (10, 11))
        scripts = {
            0: [twice, twice, Send("echo", ("v",), None, (11, 12))],
        }
        inboxes, sent, _net = run_scripts(scripts)
        # Every copy is staged (dedup is a delivery-time, value-level
        # rule); each recipient still reads the story once.
        assert all(e.staged for e in sent) and len(sent) == 6
        for node in (10, 11, 12):
            assert list(inboxes[node]) == [Message(0, "echo", "v")]
        assert len(inboxes[13]) == 0

    def test_multicast_repeating_a_broadcast_rides_the_shared_inbox(self):
        scripts = {
            0: [
                Send("input", (1,)),
                Send("echo", ("a", "b")),
                Send("input", (1,), None, (10, 11)),  # the scalar again
                Send("echo", ("b",), None, (11, 12)),  # inside the batch
            ],
        }
        inboxes, _sent, _net = run_scripts(scripts)
        expect = [
            Message(0, "input", 1),
            Message(0, "echo", "a"),
            Message(0, "echo", "b"),
        ]
        for node in RECORDERS:
            assert list(inboxes[node]) == expect
        # Nothing survived dedup, so nobody needed an overlay: all six
        # recorders alias the round's one shared inbox.
        assert len({id(box) for box in inboxes.values()}) == 1

    def test_dead_and_unknown_destinations_fail_alone(self):
        scripts = {
            0: [Send("echo", ("v",), None, (10, DEPARTED, 11, UNKNOWN))],
        }
        inboxes, sent, net = run_scripts(scripts)
        assert [(e.dest, e.staged) for e in sent] == [
            (10, True),
            (DEPARTED, False),
            (11, True),
            (UNKNOWN, False),
        ]
        assert net.metrics.sends_total == 4
        assert net.metrics.staged_total == 2
        assert list(inboxes[10]) == list(inboxes[11]) == [
            Message(0, "echo", "v")
        ]

    def test_queues_differing_only_in_order_stay_apart(self):
        scripts = {
            0: [
                Send("echo", ("a",), None, (10,)),
                Send("echo", ("b",), None, (10, 11)),
                Send("echo", ("a",), None, (11,)),
            ],
        }
        inboxes, _sent, _net = run_scripts(scripts)
        a, b = Message(0, "echo", "a"), Message(0, "echo", "b")
        assert list(inboxes[10]) == [a, b]
        assert list(inboxes[11]) == [b, a]

    def test_recipient_groups_share_one_read_only_overlay(self):
        lower, upper = (10, 11, 12), (13, 14, 15)
        scripts = {
            0: [
                Send("init", (None,)),
                Send("input", (0,), None, lower),
                Send("input", (1,), None, upper),
            ],
            1: [Send("input", (1,), None, lower)],
        }
        inboxes, _sent, _net = run_scripts(scripts)
        for group in (lower, upper):
            first = inboxes[group[0]]
            assert all(inboxes[node] is first for node in group)
        assert inboxes[10] is not inboxes[13]
        assert inboxes[10].payload_counts("input") == {0: 1, 1: 1}
        assert inboxes[13].payload_counts("input") == {1: 1}

    def test_staging_and_indexing_scale_with_multicasts_not_recipients(
        self, monkeypatch
    ):
        # Count-based complexity: a fan-out is stamped once however many
        # recipients it names, becomes one direct row, and delivery
        # builds one row view per distinct recipient group (next to the
        # broadcasts' own view), not one per recipient.
        stamps, rows, views = [], [], []
        stamp = Send.stamped
        add_direct = RoundColumns.add_direct
        init = ColumnarIndex.__init__

        def counting_stamp(send, sender):
            stamps.append(send)
            return stamp(send, sender)

        def counting_add_direct(cols, message):
            rows.append(message)
            return add_direct(cols, message)

        def counting_init(index, cols, entries=None):
            views.append(entries)
            init(index, cols, entries)

        monkeypatch.setattr(Send, "stamped", counting_stamp)
        monkeypatch.setattr(RoundColumns, "add_direct", counting_add_direct)
        monkeypatch.setattr(ColumnarIndex, "__init__", counting_init)

        def equivocate(recipients):
            nodes = tuple(range(100, 100 + recipients))
            half = recipients // 2
            net = SyncNetwork()
            for node in nodes:
                net.add_correct(node, Recorder())
            for sender in range(3):
                net.add_byzantine(
                    sender,
                    Scripted(
                        [
                            Send("init", (None,)),
                            Send("input", (0,), None, nodes[:half]),
                            Send("input", (1,), None, nodes[half:]),
                            Send("prefer", (0,), None, nodes[:half]),
                            Send("prefer", (1,), None, nodes[half:]),
                        ]
                    ),
                )
            stamps.clear()
            rows.clear()
            views.clear()
            net.step()
            net.step()
            assert net.metrics.sends_total == 3 * (1 + 2 * recipients)
            # The broadcasts' view, then one row view per group.
            assert views[0] is None
            return len(stamps), len(rows), len(views) - 1

        assert equivocate(recipients=6) == (12, 12, 2)
        assert equivocate(recipients=40) == (12, 12, 2)

    def test_one_sender_counts_once_across_a_broadcast_and_a_direct(self):
        # The direct row and the broadcast rows of one sender land in
        # one row view, so the sender is one distinct voice per query.
        scripts = {
            0: [
                Send("input", (0,)),
                Send("input", (1,), None, (10,)),
                Send("input", (0,), "x", (10,)),
            ],
        }
        inboxes, _sent, _net = run_scripts(scripts)
        box = inboxes[10]
        assert box.count("input") == 1 and box.senders() == {0}
        assert box.payload_counts("input") == {0: 1, 1: 1}
        assert box.count("input", payload=0) == 1
        assert box.best_payload("input") == (1, 1)
        assert list(box.from_sender(0)) == [
            Message(0, "input", 0),
            Message(0, "input", 1),
            Message(0, "input", 0, "x"),
        ]
        assert inboxes[11].payload_counts("input") == {0: 1}

    def test_a_multicast_shared_by_two_groups_is_one_row(self):
        shared = Send("echo", ("both",), None, (10, 11, 12, 13))
        scripts = {
            0: [
                Send("init", (None,)),
                shared,
                Send("input", (0,), None, (10, 11)),
                Send("input", (1,), None, (12, 13)),
            ],
        }
        # Stage round 1, then deliver it by hand to keep its columns.
        net = populate(SyncNetwork(), scripts)
        net.step()
        cols = net._staging_cols
        inboxes = net._collect()
        lower, upper = inboxes[10], inboxes[12]
        assert inboxes[11] is lower and inboxes[13] is upper
        assert lower is not upper
        # Three distinct direct messages, three rows: the shared one
        # once, in both groups' views.
        assert cols.direct_rows == 3
        broadcasts = set(cols.rows())
        (row,) = (set(lower.index._rows) - broadcasts) & set(upper.index._rows)
        plane = cols.plane
        before = plane.messages_materialized
        lower_echo = [m for m in lower if m.kind == "echo" and m.sender == 0]
        upper_echo = [m for m in upper if m.kind == "echo" and m.sender == 0]
        # Its stamped object is what both groups iterate: never rebuilt.
        assert lower_echo[0] is upper_echo[0] is cols._built[row]
        assert plane.messages_materialized == before + len(cols)

    def test_every_group_member_is_delivered_the_group_inbox(self):
        lower, upper = (10, 11, 12), (13, 14, 15)
        scripts = {
            0: [
                Send("init", (None,)),
                Send("input", (0,), None, lower),
                Send("input", (1,), None, upper),
            ],
        }
        net = populate(SyncNetwork(), scripts)
        delivered = {}
        net.bus.subscribe(
            lambda e: delivered.update({(e.round, e.recipient): e.messages}),
            "deliver",
        )
        net.step()
        net.step()
        for group in (lower, upper):
            for node in group:
                inbox = net.protocol_of(node).inboxes[2]
                assert delivered[(2, node)] is inbox
                assert inbox is net.protocol_of(group[0]).inboxes[2]
        # A Byzantine sender with no direct messages gets the shared
        # inbox of the broadcasts, and its event carries that object.
        assert delivered[(2, 0)] is not delivered[(2, 10)]
        assert list(delivered[(2, 0)]) == [Message(0, "init")]

    def test_unmasked_equivocator_run_builds_no_object_index(
        self, monkeypatch
    ):
        # Every inbox the engine hands out is a row view of the round's
        # columns: an equivocating run builds no other kind of index.
        built = []
        init = InboxIndex.__init__

        def recording_init(index):
            built.append(type(index))
            init(index)

        monkeypatch.setattr(InboxIndex, "__init__", recording_init)
        result = run_spec(
            RunSpec(
                protocol="consensus",
                n=10,
                f=3,
                adversary="equivocator",
                rushing=True,
                seed=2,
            )
        )
        assert result.agreed
        assert result.metrics.sends_total > 0
        assert set(built) == {ColumnarIndex}

    def test_every_inbox_is_a_row_view(self):
        # One index implementation: a hand-built inbox, the empty one,
        # and every inbox of a lossy run — masked recipients' private
        # inboxes (drop rate > 0) and the shared ones (drop rate 0).
        assert type(Inbox([Message(1, "echo", 0)]).index) is ColumnarIndex
        assert type(Inbox().index) is ColumnarIndex
        for drop_rate in (0.0, 0.3):
            net = LossyNetwork(drop_rate, seed=5)
            for node in range(1, 8):
                net.add_correct(node * 11, EarlyConsensus(node % 2))
            kinds = set()
            net.bus.subscribe(
                lambda e: kinds.add(type(e.messages.index)), "deliver"
            )
            net.run(12, until_all_halted=False)
            assert kinds == {ColumnarIndex}
            assert (net.dropped > 0) == (drop_rate > 0)
