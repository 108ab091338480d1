"""Byzantine fan-outs to a departed and a never-registered id.

``ProtocolWrappingStrategy.explode_broadcast`` returns one direct
``Send`` row naming every recipient, which the engine stamps once,
emits as one ``send`` event and delivers through one shared inbox per
recipient group.  The drawn differential
(``tests/integration/test_differential.py``) covers registry
adversaries, which address only live ids.  This hand-built consensus
run keeps what no drawn case reaches: a strategy that keeps addressing
a departed and a never-registered id (its sends are refused staging),
next to equivocators, a targeted splitter, a half-crash, a scheduled
joiner and a forced leave, rushing on and off.  It runs node for node
against the reference engine, and its byte-accounted ``--events``
file (exact per-line ``wire_bytes``, which the reference engine does
not compute) is pinned by digest, with a ceiling on the ``Message``
objects the engine builds.
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

#: rushing -> the run's recorded send count, decided nodes, byte-costed
#: event-file digest and ceiling on the messages the engine builds.
PARENT_DIGESTS = {
    False: {
        "sends_total": 2271,
        "decided": 12,
        "materialized": 552,
        "events_bytes_sha256": "81736b0a12db301a42054fa439996ca057296223ca437bce9a0ec5efdc7def0c",
    },
    True: {
        "sends_total": 2397,
        "decided": 12,
        "materialized": 555,
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


def events_sha(rushing: bool, **network_options) -> str:
    """Digest of the run's JSONL event file (every topic)."""
    net = build(rushing, **network_options)
    stream = io.StringIO()
    with JsonlSink(net.bus, stream):
        net.run(ROUNDS, until_all_halted=False)
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("rushing", sorted(PARENT_DIGESTS))
def test_run_matches_parent_recording(rushing):
    expect = PARENT_DIGESTS[rushing]
    assert events_sha(rushing, measure_bytes=True) == (
        expect["events_bytes_sha256"]
    )
    net = build(rushing)
    net.run(ROUNDS, until_all_halted=False)
    # Building fewer Message objects is allowed; more is a regression.
    assert net.metrics.materialized_messages <= expect["materialized"]


@pytest.mark.parametrize("rushing", [False, True])
def test_columnar_matches_object_path_node_for_node(rushing):
    # The object path is the reference engine's: plain per-recipient
    # lists of Message objects.  It also says *which* node, round or
    # message drifted.
    expect = PARENT_DIGESTS[rushing]
    engine, reference = assert_matches_reference(
        lambda network: build(rushing, network), ROUNDS, False
    )
    # The run exercises what it claims to: decisions, and sends that
    # were refused staging (dead / unknown destinations).
    assert len(reference.sent) == expect["sends_total"]
    assert engine.metrics.staged_total < engine.metrics.sends_total
    assert len(engine.outputs()) == expect["decided"]
