"""Ablation benchmarks for the design choices DESIGN.md calls out.

* A1 — rushing vs non-rushing adversary: the guarantees hold either way;
  rushing only affects how hard the adversary can push rounds/messages.
* A2 — the missing-message substitution rule: with it, the tipping
  scenario (one node terminates a phase early) completes; without it,
  the stragglers starve.
* A3 — frozen vs live n_v in consensus: freezing the membership view
  after initialization (the paper's rule) is what makes late Byzantine
  self-introduction harmless.
* A4 — trim-midpoint vs trim-mean in approximate agreement: both stay
  in range; midpoint is the paper's operator and gives the deterministic
  1/2 factor.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

import statistics

from repro.adversary import QuorumSplitterStrategy
from repro.core.approx_agreement import trim_and_midpoint
from repro.core.consensus import EarlyConsensus
from repro.errors import SimulationError
from repro.sim.rng import make_rng
from repro.sim.runner import Scenario, run_scenario

from benchmarks._harness import emit_table

SEEDS = range(8)


def consensus_run(seed: int, rushing: bool, substitution: bool = True):
    scenario = Scenario(
        correct=7,
        byzantine=2,
        protocol_factory=lambda nid, i: EarlyConsensus(
            i % 2, substitution=substitution
        ),
        strategy_factory=lambda nid, i: QuorumSplitterStrategy(
            EarlyConsensus(0)
        ),
        seed=seed,
        rushing=rushing,
        max_rounds=200,
    )
    return run_scenario(scenario)


def test_ablation_rushing(benchmark):
    rows = []
    for rushing in (False, True):
        agreed = 0
        rounds = []
        for seed in SEEDS:
            result = consensus_run(seed, rushing)
            agreed += result.agreed
            rounds.append(result.rounds)
        rows.append(
            {
                "adversary": "rushing" if rushing else "non-rushing",
                "agreement%": round(100 * agreed / len(SEEDS), 1),
                "rounds(mean)": round(statistics.fmean(rounds), 1),
                "rounds(max)": max(rounds),
            }
        )
    emit_table(
        "ablation_rushing",
        rows,
        title="Ablation A1: rushing vs non-rushing (expect 100% both;"
        " rushing may cost rounds)",
    )
    assert all(row["agreement%"] == 100.0 for row in rows)
    benchmark.pedantic(
        lambda: consensus_run(0, True), rounds=5, iterations=1
    )


def test_ablation_substitution(benchmark):
    """Reuses the tipping adversary from the test suite: one node is
    pushed into deciding a phase early; without substitution the others
    starve."""
    from tests.core.test_consensus import TippingStrategy

    def tipped_run(substitution: bool):
        inputs = [1, 1, 1, 0, 0]
        scenario = Scenario(
            correct=5,
            byzantine=2,
            protocol_factory=lambda nid, i: EarlyConsensus(
                inputs[i], substitution=substitution
            ),
            strategy_factory=lambda nid, i: TippingStrategy(),
            seed=4,
            rushing=True,
            max_rounds=80,
        )
        return run_scenario(scenario)

    rows = []
    for substitution in (True, False):
        try:
            result = tipped_run(substitution)
            outcome = "agreed" if result.agreed else "DISAGREED"
            rounds = result.rounds
        except SimulationError:
            outcome = "STARVED (no termination)"
            rounds = 80
        rows.append(
            {
                "substitution": "on" if substitution else "off",
                "outcome": outcome,
                "rounds": rounds,
            }
        )
    emit_table(
        "ablation_substitution",
        rows,
        title="Ablation A2: the missing-message substitution rule under"
        " the tipping attack",
    )
    assert rows[0]["outcome"] == "agreed"
    assert rows[1]["outcome"] != "agreed"
    benchmark.pedantic(lambda: tipped_run(True), rounds=5, iterations=1)


def test_ablation_trim_operator(benchmark):
    """Trim-midpoint (the paper) vs trim-mean on adversarial value sets."""

    def trim_and_mean(values):
        ordered = sorted(values)
        trim = len(ordered) // 3
        survivors = ordered[trim: len(ordered) - trim] or ordered
        return sum(survivors) / len(survivors)

    rng = make_rng(0)
    worst_mid, worst_mean = 0.0, 0.0
    for _ in range(300):
        correct = [rng.uniform(0, 1) for _ in range(7)]
        byz_a = [rng.choice([-1e6, 1e6]) for _ in range(2)]
        byz_b = [rng.choice([-1e6, 1e6]) for _ in range(2)]
        spread_mid = abs(
            trim_and_midpoint(correct + byz_a)
            - trim_and_midpoint(correct + byz_b)
        )
        spread_mean = abs(
            trim_and_mean(correct + byz_a) - trim_and_mean(correct + byz_b)
        )
        scale = max(correct) - min(correct)
        worst_mid = max(worst_mid, spread_mid / scale)
        worst_mean = max(worst_mean, spread_mean / scale)
    rows = [
        {
            "operator": "trim-midpoint (paper)",
            "worst cross-view spread / input range": round(worst_mid, 3),
        },
        {
            "operator": "trim-mean",
            "worst cross-view spread / input range": round(worst_mean, 3),
        },
    ]
    emit_table(
        "ablation_trim",
        rows,
        title="Ablation A4: convergence operator (midpoint guarantees"
        " <= 0.5)",
    )
    assert worst_mid <= 0.5 + 1e-9
    benchmark.pedantic(
        lambda: trim_and_midpoint(list(range(100))),
        rounds=20,
        iterations=10,
    )


def test_ablation_frozen_membership(benchmark):
    """Frozen n_v: a Byzantine node that introduces itself only after
    initialization is ignored entirely (its messages are discarded), so
    its late vote-stuffing cannot move any quorum."""
    from repro.adversary.base import ByzantineStrategy
    from repro.sim.message import Send

    class LateJoiner(ByzantineStrategy):
        """Silent during init, then stuffs every quorum kind."""

        def on_round(self, view):
            if view.round <= 2:
                return ()
            return [
                Send(kind, (0,))
                for kind in ("input", "prefer", "strongprefer", "echo")
            ]

    rows = []
    agreed = 0
    for seed in SEEDS:
        scenario = Scenario(
            correct=7,
            byzantine=2,
            protocol_factory=lambda nid, i: EarlyConsensus(1),
            strategy_factory=lambda nid, i: LateJoiner(),
            seed=seed,
            max_rounds=60,
        )
        result = run_scenario(scenario)
        agreed += result.agreed and result.distinct_outputs == {1}
    rows.append(
        {
            "attack": "post-init vote stuffing",
            "unanimous-1 preserved%": round(100 * agreed / len(SEEDS), 1),
        }
    )
    emit_table(
        "ablation_frozen_membership",
        rows,
        title="Ablation A3: frozen membership view discards late"
        " self-introduction (expect 100%)",
    )
    assert agreed == len(SEEDS)
    benchmark.pedantic(
        lambda: consensus_run(0, False), rounds=5, iterations=1
    )
