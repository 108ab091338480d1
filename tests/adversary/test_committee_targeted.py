"""Adversaries aimed squarely at the sampled committee (satellite of
the committee-sampling PR).

The sharpest attack on a committee-sampled protocol is not noise at
random nodes — it is equivocation and quorum-splitting delivered to the
*committee members specifically*, since only their opinions move the
decision.  These tests compute the committee with the same seed the
protocol uses (the sampler is public and deterministic, so a real
adversary can too) and point the targeted strategies at it, with
f < n/3 overall and fewer than a third of the committee Byzantine.
Agreement must hold regardless.
"""

import random

import pytest

from repro.adversary import EquivocatorStrategy, QuorumSplitterStrategy
from repro.analysis.verdicts import Agreement, fold
from repro.core.committee import sample_committee
from repro.core.implicit_agreement import CommitteeConsensus
from repro.sim.inbox import Inbox
from repro.sim.message import expand_sends
from repro.sim.network import AdversaryView, SyncNetwork
from repro.sim.node import Protocol
from repro.sim.rng import make_rng, sparse_ids

COMMITTEE = 13
POPULATION = 30


def targeted_network(seed, strategy_builder, byz_in_committee=4):
    """Population of 30, committee of 13, f Byzantine ids *inside* it."""
    ids = sparse_ids(POPULATION, make_rng(seed))
    committee = sample_committee(ids, seed=seed, size=COMMITTEE)
    byzantine = set(sorted(committee)[:byz_in_committee])
    assert 3 * len(byzantine) < COMMITTEE
    assert 3 * len(byzantine) < POPULATION
    net = SyncNetwork(seed=seed)
    for index, node_id in enumerate(ids):
        if node_id in byzantine:
            net.add_byzantine(node_id, strategy_builder(seed, committee))
        else:
            net.add_correct(
                node_id,
                CommitteeConsensus(
                    0 if index % 8 else 1,
                    sampling_seed=seed,
                    committee_size=COMMITTEE,
                ),
            )
    return net, ids, committee, byzantine


def equivocator(seed, committee):
    return EquivocatorStrategy(
        CommitteeConsensus(
            1, sampling_seed=seed, committee_size=COMMITTEE
        ),
        targets=committee,
    )


def splitter(seed, committee):
    return QuorumSplitterStrategy(
        CommitteeConsensus(
            0, sampling_seed=seed, committee_size=COMMITTEE
        ),
        value_a=0,
        value_b=1,
        targets=committee,
    )


class TestCommitteeTargetedAdversaries:
    @pytest.mark.parametrize("seed", range(5))
    def test_equivocator_aimed_at_committee(self, seed):
        net, ids, _committee, byzantine = targeted_network(
            seed, equivocator
        )
        net.run(80)
        outputs = net.outputs()
        assert len(outputs) == len(ids) - len(byzantine)
        assert len(set(outputs.values())) == 1
        assert fold(net.trace, Agreement()) == {"agreement": None}

    @pytest.mark.parametrize("seed", range(5))
    def test_splitter_aimed_at_committee(self, seed):
        net, ids, _committee, byzantine = targeted_network(seed, splitter)
        net.run(80)
        outputs = net.outputs()
        assert len(outputs) == len(ids) - len(byzantine)
        assert len(set(outputs.values())) == 1
        assert fold(net.trace, Agreement()) == {"agreement": None}


class Beacon(Protocol):
    def __init__(self, value=1):
        super().__init__()
        self.value = value

    def on_round(self, api, inbox):
        api.broadcast("input", self.value)


def adversary_view(all_nodes, node_id=99):
    nodes = frozenset(all_nodes) | {node_id}
    return AdversaryView(
        node_id=node_id,
        round=1,
        inbox=Inbox(()),
        all_nodes=nodes,
        correct_nodes=nodes - {node_id},
        byzantine_nodes=frozenset({node_id}),
        rng=random.Random(0),
        correct_traffic=(),
    )


def scalar_sends(strategy, view):
    """The strategy's output for one round, one single-send row per
    recipient (fan-outs leave the strategy as single direct rows)."""
    return list(expand_sends(strategy.on_round(view)))


class TestTargetedTransformUnits:
    def test_equivocator_splits_only_targets(self):
        strategy = EquivocatorStrategy(
            Beacon(0), targets=frozenset({1, 2, 3, 4})
        )
        sends = scalar_sends(strategy, adversary_view(range(1, 9)))
        by_dest = {s.dest: s.payload for s in sends}
        # Victims 1..4 split between the clean and twisted stories.
        assert [by_dest[d] for d in (1, 2)] == [0, 0]
        assert [by_dest[d] for d in (3, 4)] == [1, 1]
        # Bystanders 5..8 all get the clean payload.
        assert {by_dest[d] for d in (5, 6, 7, 8)} == {0}

    def test_splitter_keeps_one_voice_for_bystanders(self):
        strategy = QuorumSplitterStrategy(
            Beacon(7),
            value_a="a",
            value_b="b",
            targets=frozenset({1, 2, 3, 4}),
        )
        sends = scalar_sends(strategy, adversary_view(range(1, 9)))
        by_dest = {s.dest: s.payload for s in sends}
        assert [by_dest[d] for d in (1, 2)] == ["a", "a"]
        assert [by_dest[d] for d in (3, 4)] == ["b", "b"]
        assert {by_dest[d] for d in (5, 6, 7, 8)} == {"a"}

    def test_no_targets_means_everyone_is_split(self):
        strategy = EquivocatorStrategy(Beacon(0))
        sends = scalar_sends(strategy, adversary_view(range(1, 5)))
        by_dest = {s.dest: s.payload for s in sends}
        # All-nodes split (self included): lower half clean, upper twisted.
        assert [by_dest[d] for d in (1, 2)] == [0, 0]
        assert [by_dest[d] for d in (3, 4)] == [1, 1]
