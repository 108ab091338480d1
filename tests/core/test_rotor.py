"""Rotor-coordinator (Algorithm 2): good round, O(n) termination."""

import pytest

from repro.adversary import (
    CoordinatorUsurperStrategy,
    MembershipLiarStrategy,
    PresentOnlyStrategy,
    SilentStrategy,
)
from repro.analysis.verdicts import GoodRound
from repro.core.rotor import RotorCoordinator

from tests.conftest import assert_holds, run_quick


def rotor_factory(nid, i):
    return RotorCoordinator(opinion=("op", i))


class TestTermination:
    @pytest.mark.parametrize("seed", range(5))
    def test_terminates_within_linear_rounds(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            protocol_factory=rotor_factory,
            strategy_factory=lambda nid, i: PresentOnlyStrategy(),
            max_rounds=100,
        )
        n = 9
        # 2 init rounds + at most n+1 selection rounds
        assert result.rounds <= 2 * n + 3

    def test_all_correct_nodes_terminate(self):
        result = run_quick(
            correct=10,
            byzantine=3,
            seed=1,
            protocol_factory=rotor_factory,
            strategy_factory=lambda nid, i: SilentStrategy(),
            max_rounds=100,
        )
        assert len(result.outputs) == 10

    def test_rounds_scale_linearly_with_n(self):
        rounds = []
        for correct in (4, 8, 16, 32):
            result = run_quick(
                correct=correct,
                protocol_factory=rotor_factory,
                max_rounds=3 * correct + 10,
            )
            rounds.append(result.rounds)
        # monotone growth, and roughly n + constant
        assert rounds == sorted(rounds)
        assert rounds[-1] <= 32 + 5


class TestGoodRound:
    @pytest.mark.parametrize("seed", range(5))
    def test_good_round_with_silent_adversary(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            protocol_factory=rotor_factory,
            strategy_factory=lambda nid, i: SilentStrategy(),
            max_rounds=100,
        )
        assert_holds(result, GoodRound(result.correct_ids))

    @pytest.mark.parametrize("seed", range(5))
    def test_good_round_with_usurper(self, seed):
        # The usurper participates honestly to become a candidate, then
        # equivocates its opinion; a good round must still occur.
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            rushing=True,
            protocol_factory=rotor_factory,
            strategy_factory=lambda nid, i: CoordinatorUsurperStrategy(
                RotorCoordinator(opinion=("evil", i))
            ),
            max_rounds=100,
        )
        assert_holds(result, GoodRound(result.correct_ids))

    @pytest.mark.parametrize("seed", range(5))
    def test_good_round_with_membership_liar(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            rushing=True,
            protocol_factory=rotor_factory,
            strategy_factory=lambda nid, i: MembershipLiarStrategy(),
            max_rounds=100,
        )
        assert_holds(result, GoodRound(result.correct_ids))


class TestSelections:
    def test_selection_order_common_across_correct_nodes(self):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=4,
            protocol_factory=rotor_factory,
            strategy_factory=lambda nid, i: PresentOnlyStrategy(),
            max_rounds=100,
        )
        orders = [
            tuple(result.protocols[n].selection_order)
            for n in result.correct_ids
        ]
        assert len(set(orders)) == 1

    def test_all_correct_ids_become_candidates(self):
        result = run_quick(
            correct=6,
            protocol_factory=rotor_factory,
            max_rounds=50,
        )
        for node in result.correct_ids:
            candidates = result.protocols[node].core.candidates
            assert set(result.correct_ids) <= set(candidates)

    def test_no_phantom_candidates_without_byzantine_help(self):
        result = run_quick(
            correct=6,
            protocol_factory=rotor_factory,
            max_rounds=50,
        )
        for node in result.correct_ids:
            candidates = set(result.protocols[node].core.candidates)
            assert candidates == set(result.correct_ids)

    def test_coordinators_selected_in_id_order(self):
        result = run_quick(
            correct=6,
            protocol_factory=rotor_factory,
            max_rounds=50,
        )
        order = result.protocols[result.correct_ids[0]].selection_order
        assert order == sorted(order)

    def test_opinions_accepted_from_each_correct_coordinator(self):
        result = run_quick(
            correct=5,
            protocol_factory=rotor_factory,
            max_rounds=50,
        )
        # with no Byzantine nodes every selection is a correct node whose
        # opinion everyone accepts the next round
        for node in result.correct_ids:
            protocol = result.protocols[node]
            coordinators = [c for _r, c, _o in protocol.accepted_opinions]
            assert set(coordinators) == set(result.correct_ids)
