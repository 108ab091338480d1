"""E7 — Parallel consensus (Theorem 10.1).

Claim: validity (pairs input at every correct node are output by all),
agreement (identical output sets), termination in O(f) rounds — with
instances joinable mid-flight and Byzantine-initiated ids dying quietly.

Regenerated table: per (instance count, awareness pattern), agreement
rate and rounds; rounds must stay flat in the number of instances.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary import RandomNoiseStrategy, SilentStrategy
from repro.analysis.verdicts import ParallelOutputs, fold
from repro.core.parallel_consensus import ParallelConsensus
from repro.sim.runner import Scenario, run_scenario

from benchmarks._harness import emit_table

SEEDS = range(8)


def one_run(instances: int, awareness: str, seed: int):
    inputs_by_node = {}

    def factory(nid, i):
        inputs = {}
        for k in range(instances):
            if awareness == "full" or (i + k) % 2 == 0:
                inputs[f"id{k}"] = k
        inputs_by_node[nid] = inputs
        return ParallelConsensus(inputs)

    scenario = Scenario(
        correct=7,
        byzantine=2,
        protocol_factory=factory,
        strategy_factory=lambda nid, i: (
            SilentStrategy() if seed % 2 else RandomNoiseStrategy(rate=3)
        ),
        seed=seed,
        rushing=True,
        max_rounds=400,
    )
    result = run_scenario(scenario)
    return result, inputs_by_node


def build_rows():
    rows = []
    for instances in (1, 4, 16):
        for awareness in ("full", "partial"):
            agreed = 0
            theorem_ok = 0
            rounds = []
            for seed in SEEDS:
                result, inputs_by_node = one_run(
                    instances, awareness, seed
                )
                agreed += result.agreed
                theorem = ParallelOutputs(result.correct_ids, inputs_by_node)
                theorem_ok += fold(result.trace, theorem) == {
                    theorem.name: None
                }
                rounds.append(result.rounds)
            rows.append(
                {
                    "instances": instances,
                    "awareness": awareness,
                    "agreement%": round(100 * agreed / len(SEEDS), 1),
                    "thm 10.1 ok%": round(
                        100 * theorem_ok / len(SEEDS), 1
                    ),
                    "rounds(max)": max(rounds),
                }
            )
    return rows


def test_e7_table_and_timing(benchmark):
    rows = build_rows()
    emit_table(
        "e7_parallel",
        rows,
        title="E7: parallel consensus (expect 100%, rounds flat in"
        " instance count)",
    )
    assert all(row["agreement%"] == 100.0 for row in rows)
    assert all(row["thm 10.1 ok%"] == 100.0 for row in rows)
    spread = max(r["rounds(max)"] for r in rows) - min(
        r["rounds(max)"] for r in rows
    )
    assert spread <= 15
    benchmark.pedantic(
        lambda: one_run(4, "partial", 0), rounds=3, iterations=1
    )
