"""Byzantine direct-send fan-outs pinned to pre-multicast recordings.

``ProtocolWrappingStrategy.explode_broadcast`` used to return one
single-recipient send per recipient; it now returns one direct ``Send``
row naming every recipient, which the columnar engine stamps once,
emits as one ``send`` event and delivers through one shared inbox per
recipient group.  The change must be invisible: the digests below were
taken on the commit *before* it, from the same hand-built consensus
runs — equivocators, a targeted splitter, a half-crash and a strategy
that keeps addressing a departed and a never-registered id — with a
scheduled joiner and a forced leave, rushing on and off.  Each digest
covers every output, the decision rounds, ``Metrics.summary()``, the
ordered semantic event stream and the full ``--events``-style JSONL
rendering (per-recipient ``send`` lines with their ``staged`` flags,
every ``deliver`` batch), once without and once with byte accounting
(exact per-line ``wire_bytes``).  The summary is hashed without the
columnar plane's work counters (``payload_intern_hits``,
``unique_payloads`` and ``materialized_messages``); the last is pinned
as a ceiling instead.
The summary hashes and ceilings were re-recorded on ce3f1ae under
that definition, and the two event-file hashes for event schema v2: a
v2 file differs from its v1 recording only in its header, its
``run-start`` line and one closing ``run-end`` line.

Print fresh digests with::

    PYTHONPATH=src python -m tests.integration.test_multicast_equivalence
"""

import hashlib
import io

import pytest

from repro.adversary import EquivocatorStrategy, QuorumSplitterStrategy
from repro.adversary.base import ProtocolWrappingStrategy
from repro.adversary.simple import HalfCrashStrategy
from repro.core.consensus import EarlyConsensus
from repro.obs import JsonlSink
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork

from tests.reference_engine import assert_matches_reference

CORRECT = 13
LEAVER = 4
JOINER = 40
GHOST = 77
ROUNDS = 24

#: rushing -> digest recorded on the parent commit (summary hash and
#: ``materialized`` ceiling re-recorded on ce3f1ae).
PARENT_DIGESTS = {
    False: {
        "sends_total": 2271,
        "staged_total": 2194,
        "deliveries_total": 11904,
        "materialized": 552,
        "decided": 12,
        "nodes_sha256": "94c1486c079fcd676b23cad1723c252b02428b7a2f97f5bf3995bd4c74a5cb31",
        "decide_rounds_sha256": "121afb299ef141ff88a7cc2e0c66439993c8042766c96a28c12674652d7f678a",
        "summary_sha256": "9f72908f155a0cae80a98efaedf95b3db9d2a60e1e4e3bd73250309b3247d7fa",
        "semantic_sha256": "8d29a4a86015ceb580b40743ebcce0b6db6c9dca0d041739518d7995ed41dc0a",
        "events_sha256": "966521bc10d773e37953aaf0a03d5b81850cea7035fa4b5bbc4273b210694618",
        "events_bytes_sha256": "81736b0a12db301a42054fa439996ca057296223ca437bce9a0ec5efdc7def0c",
    },
    True: {
        "sends_total": 2397,
        "staged_total": 2286,
        "deliveries_total": 11935,
        "materialized": 555,
        "decided": 12,
        "nodes_sha256": "94c1486c079fcd676b23cad1723c252b02428b7a2f97f5bf3995bd4c74a5cb31",
        "decide_rounds_sha256": "121afb299ef141ff88a7cc2e0c66439993c8042766c96a28c12674652d7f678a",
        "summary_sha256": "4289dd296d45081f8a513a5b47f253435a54eb7c02218da54b3f3f31bd804cd8",
        "semantic_sha256": "8d29a4a86015ceb580b40743ebcce0b6db6c9dca0d041739518d7995ed41dc0a",
        "events_sha256": "5692fea3dbc9e3e6c4bff9897bb1e0bb49bd0dda61b4ecaaedcced7c38005a0a",
        "events_bytes_sha256": "372b5d210815063b4ea5c0dcf025f216ee3c4b58dc04f968c8eabf0a499ebdf6",
    },
}


class StubbornSplit(ProtocolWrappingStrategy):
    """Fans every honest broadcast out to a fixed address list.

    The list is never refreshed from the view, so it keeps naming the
    node that left (a dead destination: that recipient's copy is not
    staged, everyone else's is) and an id that never existed.  Under
    rushing it also parrots the first two correct sends of the round to
    the same list, so the two modes are different runs.
    """

    def __init__(self, protocol, recipients):
        super().__init__(protocol)
        self._recipients = tuple(recipients)

    def transform(self, sends, view):
        result = []
        for send in sends:
            result.extend(self.explode_broadcast(send, self._recipients))
        for _sender, overheard in view.correct_traffic[:2]:
            result.extend(
                self.explode_broadcast(overheard, self._recipients)
            )
        return result


def build(rushing: bool, network=SyncNetwork, **network_options):
    """13 correct nodes, four kinds of fan-out adversary, churn.

    Node 4 is removed at round 5 and node 40 joins at round 3, so the
    strategies' per-round recipient lists change under them and the
    stubborn one addresses a corpse from round 5 on.
    """
    schedule = MembershipSchedule()
    schedule.join(3, JOINER, lambda: EarlyConsensus(1))
    schedule.leave(5, LEAVER)
    net = network(
        seed=14, rushing=rushing, membership=schedule, **network_options
    )
    for node in range(CORRECT):
        net.add_correct(node, EarlyConsensus(node % 2))
    net.add_byzantine(20, EquivocatorStrategy(EarlyConsensus(1)))
    net.add_byzantine(21, EquivocatorStrategy(EarlyConsensus(0)))
    net.add_byzantine(
        22,
        QuorumSplitterStrategy(
            EarlyConsensus(1), targets=frozenset({1, 2, LEAVER, 6, 9, JOINER})
        ),
    )
    net.add_byzantine(23, HalfCrashStrategy(EarlyConsensus(0), crash_round=4))
    net.add_byzantine(
        24,
        StubbornSplit(
            EarlyConsensus(1), [0, 3, LEAVER, 8, GHOST, 12, JOINER]
        ),
    )
    return net


def sha(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def node_rows(net: SyncNetwork) -> list:
    """What every correct node ended with, node for node."""
    return sorted(
        (node, protocol.halted, repr(protocol.output))
        for node, protocol in net.protocols().items()
    )


def semantic_rows(net: SyncNetwork) -> list:
    return [
        (e.round, e.node, e.event, repr(sorted(e.detail.items())))
        for e in net.trace
    ]


def events_sha(rushing: bool, **network_options) -> str:
    """Digest of the run's JSONL event file (every topic)."""
    net = build(rushing, **network_options)
    stream = io.StringIO()
    with JsonlSink(net.bus, stream):
        net.run(ROUNDS, until_all_halted=False)
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


def digest(rushing: bool) -> dict:
    """The run's digest.  The plane's work counters are not behaviour:
    the interning counters leave the hashed summary, and the build
    counter leaves it as the plain ``materialized`` count."""
    net = build(rushing)
    net.run(ROUNDS, until_all_halted=False)
    summary = net.metrics.summary()
    del summary["payload_intern_hits"], summary["unique_payloads"]
    materialized = summary.pop("materialized_messages")
    return {
        "sends_total": summary["sends_total"],
        "staged_total": summary["staged_total"],
        "deliveries_total": summary["deliveries_total"],
        "materialized": materialized,
        "decided": len(net.outputs()),
        "nodes_sha256": sha(node_rows(net)),
        "decide_rounds_sha256": sha(
            sorted(net.trace.rounds_of("decide").items())
        ),
        "summary_sha256": sha(sorted(summary.items())),
        "semantic_sha256": sha(semantic_rows(net)),
        "events_sha256": events_sha(rushing),
        "events_bytes_sha256": events_sha(rushing, measure_bytes=True),
    }


@pytest.mark.parametrize("rushing", sorted(PARENT_DIGESTS))
def test_run_matches_parent_recording(rushing):
    expect = PARENT_DIGESTS[rushing]
    # The runs must exercise what they claim to: decisions, and sends
    # that were refused staging (dead / unknown destinations).
    assert expect["decided"] > 0
    assert expect["staged_total"] < expect["sends_total"]
    got = digest(rushing)
    # Building fewer Message objects is allowed; more is a regression.
    assert got.pop("materialized") <= expect["materialized"]
    assert got == {k: v for k, v in expect.items() if k != "materialized"}


@pytest.mark.parametrize("rushing", [False, True])
def test_columnar_matches_object_path_node_for_node(rushing):
    # The object path is the reference engine's: plain per-recipient
    # lists of Message objects.  The recorded digests are one pin; this
    # replay of the same population is the other, and it also says
    # *which* node, round or message drifted.
    expect = PARENT_DIGESTS[rushing]
    engine, reference = assert_matches_reference(
        lambda network: build(rushing, network), ROUNDS, False
    )
    assert len(reference.sent) == expect["sends_total"]
    assert len(engine.outputs()) == expect["decided"]


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {rushing: digest(rushing) for rushing in (False, True)},
        sort_dicts=False,
    )
