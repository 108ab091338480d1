"""Tests for the classical known-n,f baselines."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.adversary import QuorumSplitterStrategy, SilentStrategy
from repro.baselines import (
    DolevApproxAgreement,
    KnownFRotatingCoordinator,
    PhaseKingConsensus,
    SrikanthTouegBroadcast,
)
from repro.baselines.dolev_approx import trim_f_and_midpoint
from repro.analysis.campaign import evaluate_spec
from repro.obs.bus import EventBus
from repro.scenario import RunSpec, run_spec
from repro.sim.network import SyncNetwork
from repro.sim.rng import consecutive_ids

SRC = pathlib.Path(__file__).parents[2] / "src"


def build_network(
    n, f, protocol_builder, strategy_builder=None, seed=0, rushing=False
):
    """Consecutive-id network: the luxury the baselines assume."""
    ids = consecutive_ids(n)
    members = list(ids)
    net = SyncNetwork(seed=seed, rushing=rushing)
    for node_id in ids[: n - f]:
        net.add_correct(node_id, protocol_builder(node_id, members))
    for node_id in ids[n - f:]:
        strategy = (
            strategy_builder(node_id) if strategy_builder else SilentStrategy()
        )
        net.add_byzantine(node_id, strategy)
    return net, members


class TestSrikanthToueg:
    def test_correct_sender_accepted_by_all(self):
        net, _ = build_network(
            9,
            2,
            lambda nid, members: SrikanthTouegBroadcast(
                0, 9, 2, "m" if nid == 0 else None
            ),
        )
        net.run(8, until_all_halted=False)
        assert all(
            p.has_accepted("m") for p in net.protocols().values()
        )

    def test_rejects_bad_resiliency(self):
        with pytest.raises(ValueError):
            SrikanthTouegBroadcast(0, 6, 2)

    def test_acceptance_by_round_three(self):
        net, _ = build_network(
            7,
            1,
            lambda nid, members: SrikanthTouegBroadcast(
                0, 7, 1, "m" if nid == 0 else None
            ),
        )
        net.run(6, until_all_halted=False)
        for protocol in net.protocols().values():
            assert protocol.accepted[("m", 0)] <= 3


class TestPhaseKing:
    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_mixed_inputs(self, seed):
        net, members = build_network(
            10,
            3,
            lambda nid, members: PhaseKingConsensus(nid % 2, members, 3),
            strategy_builder=lambda nid: QuorumSplitterStrategy(
                PhaseKingConsensus(0, consecutive_ids(10), 3)
            ),
            seed=seed,
            rushing=True,
        )
        net.run(60)
        outputs = set(net.outputs().values())
        assert len(outputs) == 1, net.outputs()

    @pytest.mark.parametrize("value", [0, 1])
    def test_validity(self, value):
        net, members = build_network(
            7,
            2,
            lambda nid, members: PhaseKingConsensus(value, members, 2),
        )
        net.run(40)
        assert set(net.outputs().values()) == {value}

    def test_runs_exactly_f_plus_one_phases(self):
        net, members = build_network(
            7, 2, lambda nid, members: PhaseKingConsensus(0, members, 2)
        )
        rounds = net.run(40)
        assert rounds == 4 * 3  # (f+1) phases of 4 rounds

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PhaseKingConsensus(7, [1, 2, 3, 4], 1)

    def test_rejects_bad_resiliency(self):
        with pytest.raises(ValueError):
            PhaseKingConsensus(0, [1, 2, 3], 1)


class TestDolevApprox:
    def test_trim_requires_enough_values(self):
        with pytest.raises(ValueError):
            trim_f_and_midpoint([1.0, 2.0], 1)

    def test_trim_removes_exactly_f(self):
        assert trim_f_and_midpoint([-100, 1.0, 3.0, 5.0, 100], 1) == 3.0

    def test_convergence_matches_unknown_f_version(self):
        from repro.adversary import ValueInjectorStrategy

        inputs = [0.0, 8.0, 4.0, 2.0, 6.0, 1.0, 7.0]
        net, _ = build_network(
            9,
            2,
            lambda nid, members: DolevApproxAgreement(
                inputs[nid], f=2, iterations=6
            ),
            strategy_builder=lambda nid: ValueInjectorStrategy(
                low=-50, high=50
            ),
        )
        net.run(10)
        outputs = list(net.outputs().values())
        assert max(outputs) - min(outputs) <= 8 / 2**5
        assert all(0.0 <= o <= 8.0 for o in outputs)


class TestKnownFRotating:
    def test_selects_f_plus_one_coordinators(self):
        net, members = build_network(
            7,
            2,
            lambda nid, members: KnownFRotatingCoordinator(
                nid * 10, members, 2
            ),
        )
        net.run(10)
        protocol = net.protocols()[3]
        coordinators = [c for _r, c, _o in protocol.accepted_opinions]
        assert coordinators == members[:3]

    def test_terminates_in_f_plus_two_rounds(self):
        net, members = build_network(
            7, 2, lambda nid, members: KnownFRotatingCoordinator(0, members, 2)
        )
        assert net.run(10) == 4  # f + 2

    def test_message_complexity_is_minimal(self):
        net, members = build_network(
            7, 0, lambda nid, members: KnownFRotatingCoordinator(0, members, 0)
        )
        net.run(10)
        # only the single coordinator's opinion broadcast
        assert net.metrics.sends_total == 1


class TestClassicVariant:
    """Each classic is its protocol's ``classic`` variant and holds the
    verdicts the id-only version is judged on."""

    @pytest.mark.parametrize(
        "protocol, expected, kwargs",
        [
            ("reliable-broadcast", "reliable-broadcast", {"max_rounds": 6}),
            ("binary-consensus", "agreement", {}),
            (
                "approx",
                "half-range",
                {
                    "adversary": "value-injector",
                    "rushing": True,
                    "protocol_params": {"iterations": 6},
                },
            ),
            ("rotor", "good-round", {}),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_holds_its_protocols_verdicts(
        self, protocol, expected, kwargs, seed
    ):
        spec = RunSpec(
            protocol=protocol, n=10, f=3, variant="classic", seed=seed,
            **kwargs,
        )
        verdicts = evaluate_spec(spec)["verdicts"]
        assert expected in verdicts
        assert set(verdicts.values()) == {None}, verdicts

    def test_dolev_emits_the_per_iteration_events(self):
        spec = RunSpec(
            protocol="approx",
            n=4,
            f=1,
            variant="classic",
            protocol_params={"iterations": 3},
        )
        bus, events = EventBus(), []
        bus.subscribe(lambda event: events.append(event.event), "protocol")
        run_spec(spec, bus=bus)
        assert events.count("approx-iterate") == 2 * 3
        assert events.count("approx-output") == 3

    def test_a_full_run_never_imports_the_baselines(self):
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['run', 'rotor', '--n', '4', '--f', '1']) == 0\n"
            "assert 'repro.baselines' not in sys.modules\n"
            "main(['run', 'rotor', '--n', '4', '--f', '1',"
            " '--variant', 'classic'])\n"
            "assert 'repro.baselines' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
