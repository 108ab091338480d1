"""Integration: compositions and cross-protocol consistency.

These tests exercise the seams between subsystems — the embedded rotor
inside consensus, the shared candidate set under parallel consensus, the
machines inside total ordering — and compare in-model protocols against
their known-n,f baselines on the same inputs.
"""

import pytest

from repro.adversary import SilentStrategy, ValueInjectorStrategy
from repro.baselines import DolevApproxAgreement
from repro.core.approx_agreement import ApproximateAgreement
from repro.core.consensus import EarlyConsensus
from repro.core.parallel_consensus import ParallelConsensus
from repro.sim.network import SyncNetwork
from repro.sim.rng import consecutive_ids

from tests.conftest import run_quick


class TestEmbeddedRotor:
    def test_consensus_rotor_candidates_cover_correct_nodes(self):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=1,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        for node in result.correct_ids:
            protocol = result.protocols[node]
            assert set(result.correct_ids) <= set(protocol.rotor.candidates)

    def test_phase_coordinators_agree_across_nodes(self):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=2,
            protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        per_phase = {}
        for event in result.trace.of("phase-coordinator"):
            per_phase.setdefault(event.get("phase"), set()).add(
                event.get("coordinator")
            )
        for phase, coordinators in per_phase.items():
            assert len(coordinators) == 1, (phase, coordinators)


class TestUnknownVsKnownF:
    def test_approx_convergence_rate_matches_dolev(self):
        """§12: 'the convergence rate of the approximate agreement
        algorithm remains unchanged'."""
        inputs = [0.0, 8.0, 2.0, 6.0, 4.0, 1.0, 7.0]
        iterations = 6

        unknown = run_quick(
            correct=7,
            byzantine=2,
            seed=5,
            rushing=True,
            protocol_factory=lambda nid, i: ApproximateAgreement(
                inputs[i], iterations=iterations
            ),
            strategy_factory=lambda nid, i: ValueInjectorStrategy(),
            max_rounds=12,
        )

        net = SyncNetwork(seed=5, rushing=True)
        ids = consecutive_ids(9)
        for index, node_id in enumerate(ids[:7]):
            net.add_correct(
                node_id,
                DolevApproxAgreement(inputs[index], f=2, iterations=iterations),
            )
        for node_id in ids[7:]:
            net.add_byzantine(node_id, ValueInjectorStrategy())
        net.run(12)

        def final_range(outputs):
            values = list(outputs.values())
            return max(values) - min(values)

        unknown_range = final_range(unknown.outputs)
        known_range = final_range(net.outputs())
        budget = (max(inputs) - min(inputs)) / 2 ** (iterations - 1)
        assert unknown_range <= budget
        assert known_range <= budget

    def test_same_rounds_for_reliable_broadcast(self):
        """Both RB variants accept a correct sender's message in round 3."""
        from repro.baselines import SrikanthTouegBroadcast
        from repro.core.reliable_broadcast import ReliableBroadcast
        from tests.conftest import predict_ids

        correct_ids, _ = predict_ids(0, 7, 2)
        sender = correct_ids[0]
        unknown = run_quick(
            correct=7,
            byzantine=2,
            seed=0,
            protocol_factory=lambda nid, i: ReliableBroadcast(
                sender, "m" if nid == sender else None
            ),
            strategy_factory=lambda nid, i: SilentStrategy(),
            max_rounds=6,
            until_all_halted=False,
        )
        net = SyncNetwork(seed=0)
        ids = consecutive_ids(9)
        for node_id in ids[:7]:
            net.add_correct(
                node_id,
                SrikanthTouegBroadcast(
                    0, 9, 2, "m" if node_id == 0 else None
                ),
            )
        for node_id in ids[7:]:
            net.add_byzantine(node_id, SilentStrategy())
        net.run(6, until_all_halted=False)

        unknown_rounds = {
            unknown.protocols[n].acceptance_round("m")
            for n in unknown.correct_ids
        }
        known_rounds = {
            p.accepted[("m", 0)] for p in net.protocols().values()
        }
        assert unknown_rounds == known_rounds == {3}


class TestParallelVsSequential:
    def test_parallel_consensus_agrees_with_single_consensus(self):
        """One instance of parallel consensus must reach the same kind of
        outcome as Algorithm 3 on the same unanimous input."""
        single = run_quick(
            correct=7,
            byzantine=2,
            seed=3,
            protocol_factory=lambda nid, i: EarlyConsensus(42),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        parallel = run_quick(
            correct=7,
            byzantine=2,
            seed=3,
            protocol_factory=lambda nid, i: ParallelConsensus({"k": 42}),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        assert single.distinct_outputs == {42}
        assert parallel.distinct_outputs == {(("k", 42),)}

    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_rounds_flat_in_instance_count(self, count):
        result = run_quick(
            correct=7,
            byzantine=2,
            seed=4,
            protocol_factory=lambda nid, i: ParallelConsensus(
                {f"id{k}": k for k in range(count)}
            ),
            strategy_factory=lambda nid, i: SilentStrategy(),
        )
        assert result.rounds <= 15
