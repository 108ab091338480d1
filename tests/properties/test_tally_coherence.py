"""Randomized coherence check: shared-tally ``_count`` vs naive rebuild.

:meth:`~repro.core.parallel_consensus.ConsensusInstance._count` rides
the quorum-tally plane: the decoded vote base and the membership
back-fill sets are memoized once per round on the (shared)
:class:`~repro.sim.inbox.InboxIndex`, and only the genuinely per-node
parts — the first-phase ``⊥`` back-fill and the own-last-action
substitution — are layered as count deltas through
:func:`~repro.sim.inbox.best_with_extra`.  The contract is that the
plane is invisible: for any message multiset, membership, and
substitution configuration, ``_count`` returns exactly what the
historical per-node dict rebuild returned, including the full
``(count, payload repr, insertion order)`` tie-break chain.

The naive reference below *is* that historical implementation,
preserved verbatim as the oracle.  Mirrors
``test_index_coherence.py``: randomization is seeded through
:func:`repro.sim.rng.make_rng`, so every failure replays byte-for-byte
from its seed.
"""

import hashlib

from repro.adversary import RandomNoiseStrategy
from repro.core.parallel_consensus import (
    _ABSTAINED,
    KIND_INPUT,
    KIND_NOINPUT,
    KIND_PREFER,
    KIND_STRONGPREFER,
    ConsensusInstance,
    ParallelConsensus,
)
from repro.sim.columnar import ColumnarIndex, ColumnarPlane
from repro.sim.inbox import Inbox
from repro.sim.membership import MembershipSchedule
from repro.sim.message import Message
from repro.sim.network import SyncNetwork
from repro.sim.node import Protocol
from repro.sim.rng import make_rng
from repro.types import BOTTOM

from tests.reference_engine import assert_matches_reference

QUORUM_KINDS = (KIND_INPUT, KIND_PREFER, KIND_STRONGPREFER)


class _Twin:
    """Distinct hashable payloads with identical reprs.

    Forces the exact-tie branch of ``best_with_extra`` (equal count
    *and* equal repr on distinct payloads), where only insertion order
    decides — the hardest case to keep coherent with the naive rebuild.
    """

    def __repr__(self):
        return "Twin()"

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return self is other


TWIN_A = _Twin()
TWIN_B = _Twin()

#: Message kinds seen by a tagged instance inbox: the quorum kinds, the
#: abstention markers, and non-counted traffic (echo/opinion noise).
KINDS = QUORUM_KINDS + (
    KIND_NOINPUT,
    "nopreference",
    "nostrongpreference",
    "echo",
    "opinion",
)
#: ``"__bottom__"`` is the wire encoding of ``⊥`` and must decode.
PAYLOADS = (0, 1, "v", None, "__bottom__", TWIN_A, TWIN_B)
#: Values a node may have last sent (``_last_action`` entries).
OWN_VALUES = (0, 1, "v", None, BOTTOM, TWIN_A, TWIN_B)
SENDERS = tuple(range(8))
INSTANCE = ("pc", "case")


def random_messages(rng, size):
    """A tagged-instance message list with duplicate senders/messages."""
    out = []
    while len(out) < size:
        out.append(
            Message(
                sender=rng.choice(SENDERS),
                kind=rng.choice(KINDS),
                payload=rng.choice(PAYLOADS),
                instance=INSTANCE,
            )
        )
        if rng.random() < 0.2:
            out.append(rng.choice(out))
    return out[:size]


def random_membership(rng):
    """A frozen view overlapping (but not equal to) the sender pool."""
    pool = SENDERS + (100, 101)  # members that never speak
    return frozenset(s for s in pool if rng.random() < 0.7)


def random_instance(rng):
    """A ConsensusInstance in a random substitution configuration."""
    instance = ConsensusInstance(INSTANCE, start_round=3, value=BOTTOM)
    instance.join_phase_fill = rng.random() < 0.5
    for kind in QUORUM_KINDS:
        roll = rng.random()
        if roll < 1 / 3:
            continue  # never acted on this kind
        if roll < 2 / 3:
            instance._last_action[kind] = _ABSTAINED
        else:
            instance._last_action[kind] = rng.choice(OWN_VALUES)
    return instance


# ----------------------------------------------------------------------
# The naive reference: the pre-plane _count, one dict rebuild per call.
# ----------------------------------------------------------------------
def naive_count(messages, kind, membership, join_phase_fill, last_action):
    votes = {}

    def vote(value, sender):
        votes.setdefault(value, set()).add(sender)

    def senders_of(want):
        return {m.sender for m in messages if m.kind == want}

    for message in messages:
        if message.kind == kind:
            decoded = (
                BOTTOM
                if message.payload == "__bottom__"
                else message.payload
            )
            vote(decoded, message.sender)
    if kind == KIND_INPUT:
        for sender in senders_of(KIND_NOINPUT):
            vote(BOTTOM, sender)

    heard_from = {m.sender for m in messages}
    missing = membership - heard_from
    if join_phase_fill:
        typed = senders_of(kind) | (
            senders_of(KIND_NOINPUT) if kind == KIND_INPUT else set()
        )
        for sender in membership - typed:
            vote(BOTTOM, sender)
    elif kind in last_action:
        own = last_action[kind]
        if own is not _ABSTAINED:
            for sender in missing:
                vote(own, sender)

    if not votes:
        return None, 0
    value, supporters = max(
        votes.items(), key=lambda item: (len(item[1]), repr(item[0]))
    )
    return value, len(supporters)


def assert_counts_coherent(instance, tagged, messages, membership):
    for kind in QUORUM_KINDS:
        expect = naive_count(
            messages,
            kind,
            membership,
            instance.join_phase_fill,
            instance._last_action,
        )
        assert instance._count(tagged, kind, membership) == expect


class TestTallyCoherence:
    def test_shared_count_matches_naive_reference(self):
        cases = 0
        for seed in range(80):
            rng = make_rng(seed, salt=11)
            messages = random_messages(rng, rng.randrange(0, 50))
            membership = random_membership(rng)
            tagged = Inbox(messages)
            instance = random_instance(rng)
            assert_counts_coherent(instance, tagged, messages, membership)
            cases += 3
        assert cases >= 200

    def test_shared_index_serves_divergent_node_configs(self):
        # The engine's hot path: many nodes, one round index.  Nodes
        # differ in join phase, last actions, and membership view; each
        # must get its own naive answer while the vote base is derived
        # once and shared.
        for seed in range(20):
            rng = make_rng(seed, salt=12)
            messages = random_messages(rng, 40)
            index = Inbox(messages).index
            memberships = [random_membership(rng) for _ in range(3)]
            for node in range(6):
                tagged = Inbox(index=index)
                instance = random_instance(rng)
                membership = memberships[node % len(memberships)]
                assert_counts_coherent(
                    instance, tagged, messages, membership
                )
            # All six nodes hit one memoized vote base per kind: the
            # derive key resolves to the already-built entry.
            for kind in QUORUM_KINDS:
                marker = object()
                base = index.derive(("pc-votes", kind), lambda idx: marker)
                assert base is not marker

    def test_counting_never_mutates_shared_state(self):
        # A node's deltas (back-fill, own substitution) must not leak
        # into the shared tallies: a second node with a bare config
        # counting after a delta-heavy node sees the raw votes.
        for seed in range(10):
            rng = make_rng(seed, salt=13)
            messages = random_messages(rng, 30)
            membership = random_membership(rng)
            index = Inbox(messages).index
            heavy = random_instance(rng)
            heavy.join_phase_fill = True
            assert_counts_coherent(
                heavy, Inbox(index=index), messages, membership
            )
            bare = ConsensusInstance(INSTANCE, start_round=3, value=BOTTOM)
            bare.join_phase_fill = False
            assert_counts_coherent(
                bare, Inbox(index=index), messages, frozenset()
            )
            # And the heavy node's answers are stable on re-query.
            assert_counts_coherent(
                heavy, Inbox(index=index), messages, membership
            )

    def test_exact_tie_between_substitution_and_base_best(self):
        # Two distinct payloads with equal reprs, brought to equal
        # counts by the substitution delta: insertion order must decide,
        # exactly as in the naive rebuild.
        messages = [
            Message(0, KIND_PREFER, TWIN_A, instance=INSTANCE),
            Message(1, KIND_PREFER, TWIN_A, instance=INSTANCE),
            Message(2, KIND_PREFER, TWIN_B, instance=INSTANCE),
        ]
        membership = frozenset({0, 1, 2, 3})  # node 3 is silent
        instance = ConsensusInstance(INSTANCE, start_round=3, value=BOTTOM)
        instance.join_phase_fill = False
        instance._last_action[KIND_PREFER] = TWIN_B
        expect = naive_count(
            messages,
            KIND_PREFER,
            membership,
            instance.join_phase_fill,
            instance._last_action,
        )
        got = instance._count(Inbox(messages), KIND_PREFER, membership)
        assert got == expect
        assert got == (TWIN_A, 2)  # first-inserted wins the exact tie


# ----------------------------------------------------------------------
# Columnar round plane: _count over staged columns vs message objects.
# ----------------------------------------------------------------------
def random_columnar_stream(rng, size):
    """A staging stream of tagged-instance traffic: scalar broadcasts,
    batched fan-outs, and exact repeats, over the same pools as
    :func:`random_messages` (twins and ``"__bottom__"`` included)."""
    stream = []
    while len(stream) < size:
        sender = rng.choice(SENDERS)
        kind = rng.choice(KINDS)
        if rng.random() < 0.3:
            payloads = tuple(
                rng.choice(PAYLOADS)
                for _ in range(rng.randrange(1, 5))
            )
            stream.append(("batch", sender, kind, payloads))
        else:
            stream.append(("scalar", sender, kind, rng.choice(PAYLOADS)))
        if rng.random() < 0.2:
            stream.append(rng.choice(stream))
    return stream[:size]


def stage_columnar(stream):
    """Stage the stream into fresh columns and expand it for the oracle.

    Returns ``(inbox, expanded)`` where the inbox rides a
    :class:`ColumnarIndex` and ``expanded`` is the per-send message list
    the sends expand to (duplicates retained — the naive
    oracle counts sender *sets*, and the votes-dict insertion order of
    first occurrences is identical either way).
    """
    plane = ColumnarPlane()
    cols = plane.new_round()
    expanded = []
    for entry in stream:
        if entry[0] == "scalar":
            _, sender, kind, payload = entry
            cols.stage(sender, kind, payload, INSTANCE)
            expanded.append(Message(sender, kind, payload, INSTANCE))
        else:
            _, sender, kind, payloads = entry
            cols.stage_batch(
                sender, plane.intern_batch(kind, payloads, INSTANCE)
            )
            expanded.extend(
                Message(sender, kind, p, INSTANCE) for p in payloads
            )
    return Inbox(index=ColumnarIndex(cols)), expanded


#: n = 500 runs, recorded on the last commit that had an object engine
#: (527f57b, its ``columnar`` knob off).  Print this engine's with::
#:
#:     PYTHONPATH=src python -m tests.properties.test_tally_coherence
OBJECT_ENGINE_DIGESTS = {
    "backfill": "3f30a4d79fce8e462ef8fab1b4943c2af7ac357e0699a8ffa710caf795478d24",
    "beat": "1f8b4e21f29910a365b7115fc8d79ab3390c6a94e14a63d992adea38d6afdfd2",
}


def sha(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def backfill_net(n, network=SyncNetwork):
    net = network(seed=7)
    for i in range(n):
        inputs = {"a": 10}
        if i == 0:
            inputs["b"] = 20  # everyone else joins "b" via back-fill
        net.add_correct(i, ParallelConsensus(inputs))
    net.add_byzantine(n, RandomNoiseStrategy())
    return net


def backfill_digest(n=500) -> str:
    net = backfill_net(n)
    net.run(60)
    assert len(net.outputs()) == n, "the run must actually decide"
    totals = (net.round, net.metrics.sends_total, net.metrics.deliveries_total)
    return sha((sorted(net.outputs().items()), totals, list(net.trace)))


class Beat(Protocol):
    def __init__(self):
        super().__init__()
        self.heard_by_round = {}

    def on_round(self, api, inbox) -> None:
        self.heard_by_round[api.round] = sorted(inbox.senders())
        api.broadcast("beat", api.round)


def beat_net(n, network=SyncNetwork):
    schedule = MembershipSchedule()
    schedule.join(3, n, Beat)
    schedule.leave(5, 1)
    net = network(seed=2, membership=schedule)
    for i in range(n):
        net.add_correct(i, Beat())
    return net


def heard(net) -> dict:
    return {n: p.heard_by_round for n, p in net.protocols().items()}


def beat_digest(n=500) -> str:
    net = beat_net(n)
    net.run(6, until_all_halted=False)
    return sha(sorted(heard(net).items()))


class TestColumnarTallyCoherence:
    def test_count_over_columns_matches_naive_reference(self):
        for seed in range(40):
            rng = make_rng(seed, salt=14)
            stream = random_columnar_stream(rng, rng.randrange(0, 50))
            tagged, expanded = stage_columnar(stream)
            membership = random_membership(rng)
            instance = random_instance(rng)
            assert_counts_coherent(instance, tagged, expanded, membership)

    def test_shared_columnar_index_serves_divergent_nodes(self):
        # The columnar hot path: one round's columns, many recipients.
        # Every node layers its own deltas over the one shared tally.
        for seed in range(10):
            rng = make_rng(seed, salt=15)
            stream = random_columnar_stream(rng, 40)
            tagged, expanded = stage_columnar(stream)
            index = tagged.index
            memberships = [random_membership(rng) for _ in range(3)]
            for node in range(6):
                instance = random_instance(rng)
                assert_counts_coherent(
                    instance,
                    Inbox(index=index),
                    expanded,
                    memberships[node % len(memberships)],
                )

    def test_exact_twin_tie_through_batched_staging(self):
        # The twins arrive inside one batched fan-out; the tie must
        # still fall to first staging order, exactly as scalar staging
        # and the naive rebuild resolve it.
        plane = ColumnarPlane()
        cols = plane.new_round()
        cols.stage_batch(
            0, plane.intern_batch(KIND_PREFER, (TWIN_A, TWIN_B), INSTANCE)
        )
        cols.stage(1, KIND_PREFER, TWIN_A, INSTANCE)
        cols.stage(2, KIND_PREFER, TWIN_B, INSTANCE)
        expanded = [
            Message(0, KIND_PREFER, TWIN_A, INSTANCE),
            Message(0, KIND_PREFER, TWIN_B, INSTANCE),
            Message(1, KIND_PREFER, TWIN_A, INSTANCE),
            Message(2, KIND_PREFER, TWIN_B, INSTANCE),
        ]
        instance = ConsensusInstance(INSTANCE, start_round=3, value=BOTTOM)
        instance.join_phase_fill = False
        box = Inbox(index=ColumnarIndex(cols))
        got = instance._count(box, KIND_PREFER, frozenset(range(3)))
        expect = naive_count(
            expanded, KIND_PREFER, frozenset(range(3)), False, {}
        )
        assert got == expect
        assert got == (TWIN_A, 2)  # first-staged twin wins the tie

    def test_columnar_network_replays_object_path_at_scale(self):
        # End-to-end at n = 500: only node 0 inputs the pair ("b", 20),
        # so 499 nodes join that instance through the join-round ⊥
        # back-fill, and the byzantine noise sender sits outside the
        # frozen membership, exercising the restricted-membership tally
        # path.  Node for node against the reference engine at a size
        # it runs in seconds, and pinned at n = 500 to the digest the
        # deleted object engine produced.
        assert_matches_reference(
            lambda network: backfill_net(40, network), 60
        )
        assert backfill_digest() == OBJECT_ENGINE_DIGESTS["backfill"]

    def test_columnar_join_backfill_matches_object_path_at_scale(self):
        # Network-level join-round back-fill: a scheduled joiner
        # (delivered the previous round's broadcasts through the extras
        # layer over the shared columnar index) and a forced leave must
        # leave every node's per-round sender view what the model says.
        engine, reference = assert_matches_reference(
            lambda network: beat_net(40, network), 6, False
        )
        assert heard(engine) == heard(reference)
        joiner = heard(engine)[40]
        assert min(joiner) == 3  # first active round
        assert 1 not in heard(engine)[0][6]  # the forced leave took
        assert beat_digest() == OBJECT_ENGINE_DIGESTS["beat"]


if __name__ == "__main__":
    print({"backfill": backfill_digest(), "beat": beat_digest()})
