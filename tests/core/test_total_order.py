"""Dynamic total ordering (Algorithm 6): chain-prefix and chain-growth."""

import pytest

from repro.adversary import RandomNoiseStrategy, SilentStrategy
from repro.analysis.verdicts import ChainPrefix, fold
from repro.core.total_order import TotalOrderNode, events_from_dict
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids

from tests.conftest import run_quick


def static_run(
    correct=7,
    byzantine=2,
    seed=0,
    rounds=55,
    event_rounds=(2, 5, 9),
    strategy=SilentStrategy,
):
    def factory(nid, i):
        plan = {r: f"e{i}@{r}" for r in event_rounds}
        return TotalOrderNode(event_source=events_from_dict(plan))

    return run_quick(
        correct=correct,
        byzantine=byzantine,
        seed=seed,
        protocol_factory=factory,
        strategy_factory=lambda nid, i: strategy(),
        max_rounds=rounds,
        until_all_halted=False,
    )


class TestStaticPopulation:
    def test_chains_identical(self):
        result = static_run()
        chains = [result.protocols[n].chain for n in result.correct_ids]
        assert all(c == chains[0] for c in chains)

    def test_all_correct_events_ordered(self):
        result = static_run(event_rounds=(2,))
        chain = result.protocols[result.correct_ids[0]].chain
        events = {entry[2] for entry in chain}
        assert events == {f"e{i}@2" for i in range(7)}

    def test_chain_sorted_by_round_then_deterministic(self):
        result = static_run(event_rounds=(2, 5))
        chain = result.protocols[result.correct_ids[0]].chain
        rounds = [entry[0] for entry in chain]
        assert rounds == sorted(rounds)

    def test_chain_growth(self):
        # more simulated time, more finalized events
        short = static_run(rounds=45, event_rounds=tuple(range(2, 50, 3)))
        long = static_run(rounds=75, event_rounds=tuple(range(2, 50, 3)))
        len_short = len(
            short.protocols[short.correct_ids[0]].chain
        )
        len_long = len(long.protocols[long.correct_ids[0]].chain)
        assert len_long > len_short

    def test_prefix_checker_passes(self):
        result = static_run()
        assert fold(result.trace, ChainPrefix()) == {"chain-prefix": None}

    @pytest.mark.parametrize("seed", range(3))
    def test_chains_identical_under_noise(self, seed):
        result = static_run(seed=seed, strategy=RandomNoiseStrategy)
        chains = [result.protocols[n].chain for n in result.correct_ids]
        assert all(c == chains[0] for c in chains)

    def test_finality_lags_by_budget(self):
        result = static_run(rounds=60)
        node = result.protocols[result.correct_ids[0]]
        # |S| = 7 (silent byz never announce): budget 5*7/2+2 = 19.5
        assert node.final_through >= node.local_round - 24


def dynamic_network(
    seed=7,
    seeds_correct=7,
    byzantine=2,
    joiners=2,
    join_rounds=(15, 22),
    leaver_round=None,
    total_rounds=100,
):
    rng = make_rng(seed)
    ids = sparse_ids(seeds_correct + byzantine + joiners, rng)
    seed_ids = ids[:seeds_correct]
    byz_ids = ids[seeds_correct: seeds_correct + byzantine]
    joiner_ids = ids[seeds_correct + byzantine:]

    membership = MembershipSchedule()
    for join_round, joiner in zip(join_rounds, joiner_ids):
        membership.join(
            join_round,
            joiner,
            lambda: TotalOrderNode(seed=False),
        )

    net = SyncNetwork(seed=seed, membership=membership)
    protocols = {}
    for index, node_id in enumerate(seed_ids):
        plan = {r: f"s{index}@{r}" for r in range(2, 60, 6)}
        protocol = TotalOrderNode(event_source=events_from_dict(plan))
        if leaver_round is not None and index == 0:
            protocol.leave_at = leaver_round
        protocols[node_id] = protocol
        net.add_correct(node_id, protocol)
    for node_id in byz_ids:
        net.add_byzantine(node_id, SilentStrategy())
    net.run(total_rounds, until_all_halted=False)
    return net, seed_ids, joiner_ids


class TestDynamicPopulation:
    def test_joiners_adopt_round_and_membership(self):
        net, seed_ids, joiner_ids = dynamic_network()
        for joiner in joiner_ids:
            protocol = net.protocols()[joiner]
            assert protocol.joined
            assert protocol.local_round is not None
            assert len(protocol.participants) >= len(seed_ids)

    def test_joiner_chain_is_suffix_of_veteran_chain(self):
        net, seed_ids, joiner_ids = dynamic_network()
        veteran_chain = net.protocols()[seed_ids[0]].chain
        for joiner in joiner_ids:
            chain = net.protocols()[joiner].chain
            assert chain, "joiner never finalized anything"
            first_round = chain[0][0]
            segment = [e for e in veteran_chain if e[0] >= first_round]
            assert segment[: len(chain)] == chain

    def test_prefix_checker_handles_joiners(self):
        net, seed_ids, joiner_ids = dynamic_network()
        assert fold(net.trace, ChainPrefix()) == {"chain-prefix": None}

    def test_leaver_halts_after_draining(self):
        net, seed_ids, _ = dynamic_network(joiners=0, join_rounds=(),
                                           leaver_round=20)
        leaver = net.protocols()[seed_ids[0]]
        assert leaver.halted
        assert leaver.output is not None

    def test_leaver_chain_is_prefix(self):
        net, seed_ids, _ = dynamic_network(joiners=0, join_rounds=(),
                                           leaver_round=20)
        leaver_chain = list(net.protocols()[seed_ids[0]].output)
        survivor_chain = net.protocols()[seed_ids[1]].chain
        assert leaver_chain == survivor_chain[: len(leaver_chain)]

    def test_survivors_keep_ordering_after_leave(self):
        net, seed_ids, _ = dynamic_network(joiners=0, join_rounds=(),
                                           leaver_round=20)
        chains = [net.protocols()[n].chain for n in seed_ids[1:]]
        assert all(c == chains[0] for c in chains)

    def test_joiner_events_finalized_everywhere(self):
        rng = make_rng(3)
        ids = sparse_ids(9, rng)
        seed_ids, joiner = ids[:7], ids[7]
        membership = MembershipSchedule()
        membership.join(
            12,
            joiner,
            lambda: TotalOrderNode(
                event_source=events_from_dict({30: "joiner-event"}),
                seed=False,
            ),
        )
        net = SyncNetwork(seed=3, membership=membership)
        for node_id in seed_ids:
            net.add_correct(node_id, TotalOrderNode())
        net.run(90, until_all_halted=False)
        for node_id in seed_ids:
            chain = net.protocols()[node_id].chain
            assert any(e[2] == "joiner-event" for e in chain)
