"""Early-terminating consensus (Algorithm 3): agreement, validity, O(f)."""

import pytest

from repro.adversary import (
    CrashStrategy,
    EquivocatorStrategy,
    QuorumSplitterStrategy,
    RandomNoiseStrategy,
    SilentStrategy,
)
from repro.analysis.checkers import check_agreement, check_validity
from repro.core.consensus import EarlyConsensus

from tests.conftest import run_quick


def splitter_factory(nid, i):
    return QuorumSplitterStrategy(EarlyConsensus(0))


class TestValidity:
    @pytest.mark.parametrize("value", [0, 1, 3.5, "label"])
    def test_unanimous_input_is_decided(self, value):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=1,
            protocol_factory=lambda nid, i: EarlyConsensus(value),
            strategy_factory=splitter_factory,
            rushing=True,
        )
        assert result.agreed
        assert result.distinct_outputs == {value}

    def test_unanimous_decides_in_first_phase(self):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=0,
            protocol_factory=lambda nid, i: EarlyConsensus(1),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        # 2 init rounds + one 5-round phase
        assert result.rounds == 7

    @pytest.mark.parametrize("seed", range(5))
    def test_output_is_some_correct_input(self, seed):
        inputs = {}

        def factory(nid, i):
            inputs[nid] = i % 3
            return EarlyConsensus(i % 3)

        result = run_quick(
            correct=10,
            byzantine=3,
            seed=seed,
            rushing=True,
            protocol_factory=factory,
            strategy_factory=splitter_factory,
        )
        check_agreement(result).raise_if_failed()
        check_validity(result, inputs.values()).raise_if_failed()


class TestAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_inputs_silent_adversary(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        assert result.agreed, result.outputs

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_inputs_quorum_splitter_rushing(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=splitter_factory,
        )
        assert result.agreed, result.outputs

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_inputs_equivocator(self, seed):
        result = run_quick(
            correct=10,
            byzantine=3,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: EquivocatorStrategy(
                EarlyConsensus(i % 2)
            ),
        )
        assert result.agreed, result.outputs

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_inputs_noise(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: RandomNoiseStrategy(rate=5),
        )
        assert result.agreed, result.outputs

    @pytest.mark.parametrize("seed", range(5))
    def test_crash_mid_protocol(self, seed):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: CrashStrategy(
                EarlyConsensus(i % 2), crash_round=5 + i
            ),
        )
        assert result.agreed, result.outputs

    def test_exact_resiliency_bound(self):
        # n = 13, f = 4: n > 3f tight.
        result = run_quick(
            correct=9,
            byzantine=4,
            seed=3,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=splitter_factory,
        )
        assert result.agreed, result.outputs

    def test_real_valued_inputs(self):
        values = [1.25, 2.5, 2.5, 2.5, -7.0, 1.25, 2.5]
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=6,
            protocol_factory=lambda nid, i: EarlyConsensus(values[i]),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        assert result.agreed
        assert result.distinct_outputs <= set(values)


class TestRoundComplexity:
    def test_rounds_grow_with_f_not_n(self):
        # For fixed small f, rounds stay flat as n grows (O(f) claim).
        rounds_by_n = {}
        for correct in (6, 12, 24):
            result = run_quick(
                correct=correct,
                byzantine=1,
                seed=2,
                protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
                strategy_factory=lambda nid, i: SilentStrategy(),
            )
            rounds_by_n[correct] = result.rounds
        spread = max(rounds_by_n.values()) - min(rounds_by_n.values())
        assert spread <= 10, rounds_by_n

    def test_terminates_within_linear_phase_budget(self):
        for f in (1, 2, 3, 4):
            result = run_quick(
                correct=3 * f + 1,
                byzantine=f,
                seed=0,
                rushing=True,
                protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
                strategy_factory=splitter_factory,
                max_rounds=2 + 5 * (2 * f + 4),
            )
            assert result.agreed


class TestEarlyTermination:
    def test_stragglers_decide_at_most_one_phase_later(self):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=9,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=splitter_factory,
        )
        rounds = [
            result.protocols[n].decided_round for n in result.correct_ids
        ]
        assert max(rounds) - min(rounds) <= 5

    def test_internal_state_exposed(self):
        result = run_quick(
            correct=4,
            protocol_factory=lambda nid, i: EarlyConsensus(1),
        )
        protocol = result.protocols[result.correct_ids[0]]
        assert protocol.n_v == 4
        assert protocol.membership == frozenset(result.correct_ids)
        assert protocol.phase >= 1


class TippingStrategy:
    """Pushes exactly one correct node into early termination, then goes
    silent — the precise scenario the substitution rule exists for.

    Requires rushing mode (it reads the current round's correct traffic
    to learn who holds the majority input) and the 3-vs-2 input split the
    tests below set up: it completes the input and prefer quorums for the
    majority holders only, then completes the strongprefer quorum for a
    single target.
    """

    def __init__(self):
        self._value = None
        self._holders = ()

    def on_round(self, view):
        from repro.sim.message import Send

        if view.round == 1:
            return [Send("init", (None,))]
        if view.round == 3:
            by_value = {}
            for sender, send in view.correct_traffic:
                if send.kind == "input":
                    by_value.setdefault(send.payload, set()).add(sender)
            if not by_value:
                return ()
            self._value, holders = max(
                by_value.items(), key=lambda kv: len(kv[1])
            )
            self._holders = sorted(holders)
            return self._tell("input", self._holders)
        if view.round == 4 and self._holders:
            return self._tell("prefer", self._holders)
        if view.round == 5 and self._holders:
            return self._tell("strongprefer", self._holders[:1])
        return ()

    def _tell(self, kind, holders):
        from repro.sim.message import Send

        return [Send(kind, (self._value,), None, (h,)) for h in holders]


class TestSubstitutionRule:
    """The Algorithm-3 caption rule, exercised both ways."""

    def _run(self, substitution: bool, max_rounds: int = 60):
        # 3 correct hold 1, 2 correct hold 0; 2 Byzantine tip the scales.
        inputs = [1, 1, 1, 0, 0]
        return run_quick(
            correct=5,
            byzantine=2,
            seed=4,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(
                inputs[i], substitution=substitution
            ),
            strategy_factory=lambda nid, i: TippingStrategy(),
            max_rounds=max_rounds,
        )

    def test_tipping_creates_early_terminator(self):
        result = self._run(substitution=True)
        rounds = sorted(
            result.protocols[n].decided_round for n in result.correct_ids
        )
        assert rounds[0] == 7  # one node decided at the end of phase 1
        assert rounds[-1] > rounds[0]  # the rest genuinely lagged

    def test_with_substitution_everyone_decides_and_agrees(self):
        result = self._run(substitution=True)
        assert result.agreed
        assert result.distinct_outputs == {1}

    def test_without_substitution_stragglers_starve(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            self._run(substitution=False, max_rounds=80)
