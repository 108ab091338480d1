"""Approximate agreement (Algorithm 4): containment and halving."""

import pytest

from repro.adversary import SilentStrategy, ValueInjectorStrategy
from repro.analysis.verdicts import HalfRange
from repro.core.approx_agreement import (
    ApproximateAgreement,
    trim_and_midpoint,
)

from tests.conftest import assert_holds, run_quick


class TestTrimAndMidpoint:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            trim_and_midpoint([])

    def test_single_value(self):
        assert trim_and_midpoint([4.0]) == 4.0

    def test_no_trim_below_three(self):
        assert trim_and_midpoint([0.0, 10.0]) == 5.0

    def test_trims_one_per_side_at_three(self):
        assert trim_and_midpoint([0.0, 4.0, 100.0]) == 4.0

    def test_trim_count_is_floor_n_over_3(self):
        values = [0, 1, 2, 3, 4, 5, 6, 7, 8]  # n=9, trim 3 each side
        assert trim_and_midpoint(values) == (3 + 5) / 2

    def test_outliers_removed(self):
        values = [-1e9, 1.0, 2.0, 3.0, 1e9]  # n=5, trim 1 each side
        assert trim_and_midpoint(values) == 2.0

    def test_unsorted_input(self):
        assert trim_and_midpoint([5.0, 1.0, 3.0]) == 3.0


class TestSingleShot:
    def test_all_outputs_equal_without_byzantine(self):
        result = run_quick(
            correct=7,
            protocol_factory=lambda nid, i: ApproximateAgreement(float(i)),
            max_rounds=3,
        )
        outputs = list(result.outputs.values())
        assert max(outputs) - min(outputs) <= 3.0  # halved from range 6

    @pytest.mark.parametrize("seed", range(5))
    def test_containment_and_halving_under_injection(self, seed):
        inputs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: ApproximateAgreement(inputs[i]),
            strategy_factory=lambda nid, i: ValueInjectorStrategy(
                low=-1e9, high=1e9
            ),
            max_rounds=3,
        )
        assert_holds(result, HalfRange(result.correct_ids, inputs))

    def test_decides_in_two_rounds(self):
        result = run_quick(
            correct=4,
            protocol_factory=lambda nid, i: ApproximateAgreement(1.0),
            max_rounds=3,
        )
        assert result.rounds == 2

    def test_garbage_payloads_ignored(self):
        from repro.adversary.base import ByzantineStrategy

        class GarbageInjector(ByzantineStrategy):
            def on_round(self, view):
                return [
                    self.broadcast("value", "not-a-number"),
                    self.broadcast("value", True),
                ]

        inputs = [1.0, 2.0, 3.0, 4.0]
        result = run_quick(
            correct=4,
            byzantine=1,
            seed=1,
            protocol_factory=lambda nid, i: ApproximateAgreement(inputs[i]),
            strategy_factory=lambda nid, i: GarbageInjector(),
            max_rounds=3,
        )
        assert_holds(result, HalfRange(result.correct_ids, inputs))


class TestIterated:
    def test_estimates_converge_geometrically(self):
        inputs = [0.0, 0.0, 0.0, 8.0, 8.0, 8.0, 4.0]
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=2,
            protocol_factory=lambda nid, i: ApproximateAgreement(
                inputs[i], iterations=6
            ),
            strategy_factory=lambda nid, i: ValueInjectorStrategy(
                low=-100.0, high=100.0
            ),
            max_rounds=10,
        )
        # per-iteration ranges must at least halve
        history = [
            result.protocols[n].estimates for n in result.correct_ids
        ]
        for step in range(1, 6):
            previous = [h[step - 1] for h in history]
            current = [h[step] for h in history]
            prev_range = max(previous) - min(previous)
            curr_range = max(current) - min(current)
            assert curr_range <= prev_range / 2 + 1e-9

    def test_final_outputs_within_inputs(self):
        inputs = [0.0, 1.0, 5.0, 9.0, 10.0, 2.0, 7.0]
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=3,
            protocol_factory=lambda nid, i: ApproximateAgreement(
                inputs[i], iterations=8
            ),
            strategy_factory=lambda nid, i: SilentStrategy(),
            max_rounds=12,
        )
        for output in result.outputs.values():
            assert min(inputs) <= output <= max(inputs)

    def test_epsilon_agreement_reached(self):
        inputs = [0.0, 16.0, 8.0, 4.0, 12.0, 2.0, 14.0]
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=4,
            protocol_factory=lambda nid, i: ApproximateAgreement(
                inputs[i], iterations=12
            ),
            strategy_factory=lambda nid, i: ValueInjectorStrategy(),
            max_rounds=16,
        )
        outputs = list(result.outputs.values())
        assert max(outputs) - min(outputs) <= 16 / 2**11

    def test_iterations_validation(self):
        with pytest.raises(ValueError):
            ApproximateAgreement(0.0, iterations=0)

    def test_all_decide_same_round(self):
        result = run_quick(
            correct=5,
            protocol_factory=lambda nid, i: ApproximateAgreement(
                float(i), iterations=4
            ),
            max_rounds=8,
        )
        rounds = {
            result.protocols[n].decided_round for n in result.correct_ids
        }
        assert len(rounds) == 1
