"""E5 — The resiliency frontier is exactly n > 3f.

Claim: everything works at n = 3f + 1 (the paper's optimal bound); a
suitable adversary breaks agreement or liveness once 3f >= n.

Regenerated table: success rate vs f for fixed n = 10 under the
strongest implemented attack (rushing full-split adversary), expect a
cliff between f = 3 (3f = 9 < 10) and f = 4 (3f = 12 >= 10).
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary.base import ByzantineStrategy
from repro.core.consensus import EarlyConsensus
from repro.errors import SimulationError
from repro.sim.message import BROADCAST, Send
from repro.sim.runner import Scenario, run_scenario

from benchmarks._harness import emit_figure, emit_table

N = 10
SEEDS = range(10)


class FullSplitAdversary(ByzantineStrategy):
    """Feeds each half of the correct nodes its own complete quorums."""

    def on_round(self, view):
        if view.round == 1:
            return [Send(BROADCAST, "init")]
        ordered = sorted(view.correct_nodes)
        half = len(ordered) // 2
        sends = []
        for kind in ("input", "prefer", "strongprefer"):
            sends.extend(Send(d, kind, 0) for d in ordered[:half])
            sends.extend(Send(d, kind, 1) for d in ordered[half:])
        return sends


def one_run(f: int, seed: int):
    scenario = Scenario(
        correct=N - f,
        byzantine=f,
        protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
        strategy_factory=lambda nid, i: FullSplitAdversary(),
        seed=seed,
        rushing=True,
        max_rounds=150,
        enforce_resiliency=False,
    )
    return run_scenario(scenario)


def build_rows():
    rows = []
    for f in range(0, 7):
        agreed = 0
        livelocked = 0
        for seed in SEEDS:
            try:
                result = one_run(f, seed)
            except SimulationError:
                livelocked += 1
                continue
            agreed += result.agreed
        rows.append(
            {
                "f": f,
                "n": N,
                "n>3f": "yes" if N > 3 * f else "no",
                "agreement%": round(100 * agreed / len(SEEDS), 1),
                "livelock%": round(100 * livelocked / len(SEEDS), 1),
            }
        )
    return rows


def test_e5_frontier(benchmark):
    rows = build_rows()
    emit_table(
        "e5_resiliency",
        rows,
        title="E5: resiliency frontier, n=10 (expect 100% for 3f<n, broken"
        " beyond)",
    )
    for row in rows:
        if row["n>3f"] == "yes":
            assert row["agreement%"] == 100.0, row
    beyond = [r for r in rows if r["n>3f"] == "no"]
    assert any(r["agreement%"] < 100.0 for r in beyond)
    emit_figure(
        "fig_e5_cliff",
        {"agreement %": [r["agreement%"] for r in rows]},
        title="Figure: the resiliency cliff at n = 3f (n=10; x axis is"
        " f = 0..6)",
        x_label="f",
        y_label="ok%",
        height=8,
    )
    benchmark.pedantic(lambda: one_run(3, 0), rounds=5, iterations=1)
