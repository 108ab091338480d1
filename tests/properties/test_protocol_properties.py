"""Property-based end-to-end protocol tests.

Hypothesis drives whole protocol runs over random input vectors, seeds,
and adversary choices; the paper's guarantees must hold on every draw.
Profiles are kept small (runs are whole simulations).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary import (
    EquivocatorStrategy,
    QuorumSplitterStrategy,
    SilentStrategy,
)
from repro.analysis.verdicts import Validity
from repro.core.consensus import EarlyConsensus
from repro.core.approx_agreement import ApproximateAgreement

from tests.conftest import assert_holds, run_quick

fast = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


ADVERSARIES = {
    "silent": lambda: SilentStrategy(),
    "splitter": lambda: QuorumSplitterStrategy(EarlyConsensus(0)),
    "equivocator": lambda: EquivocatorStrategy(EarlyConsensus(1)),
}


class TestConsensusProperties:
    @fast
    @given(
        inputs=st.lists(
            st.integers(min_value=0, max_value=1), min_size=4, max_size=10
        ),
        f=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10**6),
        adversary=st.sampled_from(sorted(ADVERSARIES)),
    )
    def test_agreement_and_validity_binary(self, inputs, f, seed, adversary):
        """Binary inputs enjoy *strict* validity: any binary decision is
        some correct node's input whenever inputs are mixed, and
        unanimity is preserved by Lemma 7.1."""
        correct = len(inputs)
        if not correct + f > 3 * f:
            f = (correct - 1) // 3
        result = run_quick(
            correct=correct,
            byzantine=f,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(inputs[i]),
            strategy_factory=lambda nid, i: ADVERSARIES[adversary](),
            max_rounds=600,
        )
        assert result.agreed, result.outputs
        if len(set(inputs)) == 1:
            assert_holds(result, Validity(inputs))
        else:
            assert result.distinct_outputs <= {0, 1}

    @fast
    @given(
        inputs=st.lists(
            st.integers(min_value=0, max_value=3), min_size=4, max_size=10
        ),
        f=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10**6),
        adversary=st.sampled_from(sorted(ADVERSARIES)),
    )
    def test_agreement_and_weak_validity_multivalued(
        self, inputs, f, seed, adversary
    ):
        """Multivalued inputs get the paper's *weak* validity: unanimity
        is preserved, but with mixed inputs a Byzantine coordinator may
        legitimately steer the common decision to a value nobody input
        (exactly as in Algorithm 3's pseudocode — the coordinator's
        opinion is adopted unchecked when no strongprefer quorum formed).
        Hypothesis originally *found* this as a counterexample to the
        over-strict strict-validity property; see docs/faq.md."""
        correct = len(inputs)
        if not correct + f > 3 * f:
            f = (correct - 1) // 3
        result = run_quick(
            correct=correct,
            byzantine=f,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: EarlyConsensus(inputs[i]),
            strategy_factory=lambda nid, i: ADVERSARIES[adversary](),
            max_rounds=600,
        )
        assert result.agreed, result.outputs
        if len(set(inputs)) == 1:
            assert_holds(result, Validity(inputs))

    @fast
    @given(
        value=st.integers(min_value=-100, max_value=100),
        correct=st.integers(min_value=4, max_value=12),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_unanimity_fast_path(self, value, correct, seed):
        f = (correct - 1) // 3
        result = run_quick(
            correct=correct - f,
            byzantine=f,
            seed=seed,
            protocol_factory=lambda nid, i: EarlyConsensus(value),
            strategy_factory=lambda nid, i: SilentStrategy(),
            max_rounds=200,
        )
        assert result.distinct_outputs == {value}
        assert result.rounds == 7  # init + exactly one phase


class TestApproxProperties:
    @fast
    @given(
        inputs=st.lists(
            st.floats(
                min_value=-1e3,
                max_value=1e3,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=4,
            max_size=10,
        ),
        seed=st.integers(min_value=0, max_value=10**6),
        low=st.floats(min_value=-1e9, max_value=0, allow_nan=False),
        high=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    )
    def test_containment_under_injection(self, inputs, seed, low, high):
        from repro.adversary import ValueInjectorStrategy

        correct = len(inputs)
        f = (correct - 1) // 3
        result = run_quick(
            correct=correct,
            byzantine=f,
            seed=seed,
            rushing=True,
            protocol_factory=lambda nid, i: ApproximateAgreement(inputs[i]),
            strategy_factory=lambda nid, i: ValueInjectorStrategy(
                low=low, high=high
            ),
            max_rounds=4,
        )
        lo, hi = min(inputs), max(inputs)
        for output in result.outputs.values():
            assert lo - 1e-9 <= output <= hi + 1e-9
        outputs = list(result.outputs.values())
        assert max(outputs) - min(outputs) <= (hi - lo) / 2 + 1e-9
