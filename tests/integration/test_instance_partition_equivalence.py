"""Many-instance parallel consensus pinned to pre-partition recordings.

The per-round instance partition (``InboxIndex.instance_subs``, fetched
once per node-round by ``ParallelConsensusMachine._run_instances``)
replaced one ``filter(instance=)`` chain — and, on the columnar plane,
one full staging-order walk — per instance per node.  The change must be
invisible: the digests below were taken on the commit *before* it, from
the same hand-built runs at two instance counts, and cover every
output, the round count, the send total and the ordered semantic event
stream.

The runs go through the plain columnar engine (a recording network
would materialize every round up front and bypass the path under
test).  Print fresh digests with::

    PYTHONPATH=src python -m tests.integration.test_instance_partition_equivalence
"""

import hashlib

import pytest

from repro.adversary import QuorumSplitterStrategy, RandomNoiseStrategy
from repro.core.parallel_consensus import ParallelConsensus
from repro.sim.network import SyncNetwork

from tests.reference_engine import assert_matches_reference

CORRECT = 13

#: instance count -> digest recorded on the parent commit.
PARENT_DIGESTS = {
    6: {
        "rounds": 10,
        "sends_total": 1554,
        "decided": 13,
        "joins": 18,
        "events": 253,
        "outputs_sha256": "16d4d4a9febcc4a459f880e3f16800f098d043c97fa7d99a3392cafeff46f208",
        "events_sha256": "42b7acf3b6c1242c247f03b4acb9c1692a941f6c0ff32fedbc1ba3336833191c",
    },
    40: {
        "rounds": 10,
        "sends_total": 7138,
        "decided": 13,
        "joins": 180,
        "events": 1613,
        "outputs_sha256": "4afd8b05cf6264af9fa3f911eb61aaa8c0675abd92a7f810041976c45c0850fb",
        "events_sha256": "1d0f5ff069fdcf000954e47aac7ceb33d6b5165a187e580ef3b7c25f4ab16bfb",
    },
}


def inputs_of(node: int, instances: int) -> dict:
    """Node *node*'s input pairs: four id classes, cycling.

    Unanimous ids (everyone inputs the same value: must be output),
    contested ids (everyone inputs, values split ``x``/``y``), ids only
    the even nodes know (the odd ones join through the first-phase ``⊥``
    back-fill) and ids a single node knows (everyone else joins).
    """
    pairs = {}
    for j in range(instances):
        tag, cls = ("id", j), j % 4
        if cls == 0:
            pairs[tag] = j
        elif cls == 1:
            pairs[tag] = "x" if (node + j) % 3 == 0 else "y"
        elif cls == 2:
            if node % 2 == 0:
                pairs[tag] = j
        elif node == j % CORRECT:
            pairs[tag] = j
    return pairs


def build(instances: int, network=SyncNetwork):
    """13 correct nodes, *instances* ids, three splitters, one noise sender.

    The splitters run the honest protocol over every id and split each
    opinion-carrying message between ``x`` and ``y`` (rushing); the
    noise sender never makes it into the frozen membership, which keeps
    the membership-restricted (non-shared) index path in play.
    """
    net = network(seed=instances, rushing=True)
    for node in range(CORRECT):
        net.add_correct(node, ParallelConsensus(inputs_of(node, instances)))
    for b in range(3):
        net.add_byzantine(
            CORRECT + b,
            QuorumSplitterStrategy(
                ParallelConsensus(
                    {("id", j): "x" for j in range(instances)}
                ),
                value_a="x",
                value_b="y",
            ),
        )
    net.add_byzantine(CORRECT + 3, RandomNoiseStrategy())
    return net


def run(instances: int) -> SyncNetwork:
    net = build(instances)
    net.run(150)
    return net


def digest(net: SyncNetwork) -> dict:
    def sha(rows) -> str:
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    outputs = sorted(
        (node, repr(value)) for node, value in net.outputs().items()
    )
    events = [
        (e.round, e.node, e.event, repr(sorted(e.detail.items())))
        for e in net.trace
    ]
    return {
        "rounds": net.round,
        "sends_total": net.metrics.sends_total,
        "decided": len(outputs),
        "joins": len(net.trace.of("instance-join")),
        "events": len(events),
        "outputs_sha256": sha(outputs),
        "events_sha256": sha(events),
    }


@pytest.mark.parametrize("instances", sorted(PARENT_DIGESTS))
def test_run_matches_parent_recording(instances):
    expect = PARENT_DIGESTS[instances]
    assert expect["decided"] == CORRECT and expect["joins"] > 0
    assert digest(run(instances)) == expect
    # The second pin: the naive reference engine replays the same
    # population node for node (a separate run — comparing deliveries
    # materializes every round, which the digest run must not).
    assert_matches_reference(lambda network: build(instances, network), 150)


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {k: digest(run(k)) for k in PARENT_DIGESTS}, sort_dicts=False
    )
