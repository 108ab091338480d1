"""Committee-sampled consensus: implicit adoption, economy, gossip.

The sampled variants' contract: same decisions as the classical
protocols, a polylog committee doing the quorum work, everyone else
adopting on the implicit-agreement quorum — at a fraction of the
message cost.
"""

from collections import Counter

from repro.core.committee import sample_committee
from repro.core.consensus import EarlyConsensus
from repro.core.implicit_agreement import (
    CommitteeConsensus,
    CommitteeParallelConsensus,
)
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


def build_sampled(
    n,
    seed=0,
    committee_size=None,
    inputs=lambda index: 0 if index % 8 else 1,
    **kwargs,
):
    rng = make_rng(seed)
    ids = sparse_ids(n, rng)
    net = SyncNetwork(seed=seed)
    for index, node_id in enumerate(ids):
        net.add_correct(
            node_id,
            CommitteeConsensus(
                inputs(index),
                sampling_seed=seed,
                committee_size=committee_size,
                **kwargs,
            ),
        )
    return net, ids


def count_sends(net) -> Counter:
    """node -> the logical sends of its ``send`` events on *net*'s bus,
    counted from now on."""
    sends: Counter = Counter()

    def on_send(event) -> None:
        sends[event.sender] += len(event.expanded())

    net.bus.subscribe(on_send, "send")
    return sends


class TestCommitteeConsensus:
    def test_all_adopt_the_committee_decision(self):
        net, ids = build_sampled(40, seed=3, committee_size=13)
        net.run(60)
        outputs = net.outputs()
        assert len(outputs) == len(ids)
        assert set(outputs.values()) == {0}
        committee = sample_committee(ids, seed=3, size=13)
        # Non-members never ran a phase: implicit adoption events only.
        adopters = {e.node for e in net.trace.of("adopt-implicit")}
        assert set(ids) - committee <= adopters

    def test_non_members_send_only_hello(self):
        net, ids = build_sampled(40, seed=3, committee_size=13)
        sends = count_sends(net)
        net.run(60)
        committee = sample_committee(ids, seed=3, size=13)
        for node_id in set(ids) - committee:
            assert sends[node_id] == 1

    def test_matches_full_broadcast_outcome_and_costs_less(self):
        net, ids = build_sampled(40, seed=5, committee_size=13)
        net.run(60)
        full = SyncNetwork(seed=5)
        for index, node_id in enumerate(ids):
            full.add_correct(
                node_id, EarlyConsensus(0 if index % 8 else 1)
            )
        full.run(60)
        assert set(net.outputs().values()) == set(full.outputs().values())
        assert net.metrics.sends_total < full.metrics.sends_total / 2

    def test_decision_economy_metrics(self):
        net, ids = build_sampled(40, seed=1, committee_size=13)
        net.run(60)
        metrics = net.metrics
        assert metrics.decisions == len(ids)
        assert metrics.messages_per_decision > 0
        assert (
            metrics.messages_per_decision
            == metrics.sends_total / metrics.decisions
        )
        summary = metrics.summary()
        assert summary["decisions"] == len(ids)
        assert summary["messages_per_decision"] == round(
            metrics.messages_per_decision, 2
        )
        # The sampled path never materializes a round off the columnar
        # plane: non-members answer every query they make through the
        # shared index, and the only Message objects built are the
        # coordinator's own rows (the committee's ``opinion_from``
        # sender bucket) — a sliver of what was staged.
        assert 0 < summary["materialized_messages"] < (
            metrics.staged_total // 10
        )
        assert summary["columnar_active"] is True

    def test_unanimous_inputs_decide_that_value(self):
        net, _ids = build_sampled(
            30, seed=2, committee_size=9, inputs=lambda index: 1
        )
        net.run(60)
        assert set(net.outputs().values()) == {1}

    def test_full_committee_degenerates_to_classical(self):
        # Tiny population: the committee is everyone, and the variant
        # must still terminate and agree (pure overhead of one hello
        # round plus the decision broadcasts).
        net, ids = build_sampled(10, seed=4)
        net.run(60)
        assert len(net.outputs()) == len(ids)
        assert len(set(net.outputs().values())) == 1


class TestJoinerGossip:
    def test_late_joiner_adopts_via_query(self):
        seed = 3
        rng = make_rng(seed)
        ids = sparse_ids(21, rng)
        joiner_id, resident_ids = ids[0], ids[1:]
        schedule = MembershipSchedule()
        joiner = CommitteeConsensus(
            0, sampling_seed=seed, committee_size=9
        )
        schedule.join(4, joiner_id, lambda: joiner)
        net = SyncNetwork(seed=seed, membership=schedule)
        for index, node_id in enumerate(resident_ids):
            net.add_correct(
                node_id,
                CommitteeConsensus(
                    0 if index % 8 else 1,
                    sampling_seed=seed,
                    committee_size=9,
                    linger=6,
                ),
            )
        net.run(80)
        outputs = net.outputs()
        assert outputs[joiner_id] == 0
        assert set(outputs.values()) == {0}
        assert net.trace.of("adopt-gossip", joiner_id)


class TestCommitteeParallelConsensus:
    def test_all_adopt_the_pair_set(self):
        seed = 7
        rng = make_rng(seed)
        ids = sparse_ids(30, rng)
        net = SyncNetwork(seed=seed)
        inputs = {"a": 1, "b": 2, "c": 3}
        for node_id in ids:
            net.add_correct(
                node_id,
                CommitteeParallelConsensus(
                    inputs, sampling_seed=seed, committee_size=9
                ),
            )
        sends = count_sends(net)
        net.run(80)
        outputs = net.outputs()
        assert len(outputs) == len(ids)
        expected = (("a", 1), ("b", 2), ("c", 3))
        assert set(outputs.values()) == {expected}
        committee = sample_committee(ids, seed=seed, size=9)
        for protocol in net.protocols().values():
            assert protocol.output_pairs() == expected
        for node_id in set(ids) - committee:
            assert sends[node_id] == 1
