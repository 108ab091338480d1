"""E4 — Approximate agreement halves the range per round (Theorem 8.3).

Claim: outputs stay inside the correct input range and the output range
is at most half the input range per iteration, under worst-case value
injection, for n > 3f with unknown n and f.

Regenerated series: per-iteration range ratio (expect <= 0.5) and final
ranges, plus containment rate (expect 100%).
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary import ValueInjectorStrategy
from repro.core.approx_agreement import IteratedApproximateAgreement
from repro.sim.runner import Scenario, run_scenario

from benchmarks._harness import emit_figure, emit_table

SEEDS = range(10)
ITERATIONS = 8


def one_run(n: int, seed: int):
    f = (n - 1) // 3
    correct = n - f
    inputs = [float(i) for i in range(correct)]
    scenario = Scenario(
        correct=correct,
        byzantine=f,
        protocol_factory=lambda nid, i: IteratedApproximateAgreement(
            inputs[i], iterations=ITERATIONS
        ),
        strategy_factory=lambda nid, i: ValueInjectorStrategy(
            low=-1e6, high=1e6
        ),
        seed=seed,
        rushing=True,
        max_rounds=ITERATIONS + 4,
    )
    result = run_scenario(scenario)
    return result, inputs


def per_round_ratios(result):
    histories = [
        result.protocols[n].estimates for n in result.correct_ids
    ]
    ratios = []
    for step in range(1, ITERATIONS):
        prev = [h[step - 1] for h in histories]
        curr = [h[step] for h in histories]
        prev_range = max(prev) - min(prev)
        curr_range = max(curr) - min(curr)
        if prev_range > 1e-12:
            ratios.append(curr_range / prev_range)
    return ratios


def build_rows():
    rows = []
    for n in (4, 7, 13, 25):
        contained = 0
        worst_ratio = 0.0
        final_ranges = []
        for seed in SEEDS:
            result, inputs = one_run(n, seed)
            outputs = list(result.outputs.values())
            if min(inputs) <= min(outputs) and max(outputs) <= max(inputs):
                contained += 1
            ratios = per_round_ratios(result)
            if ratios:
                worst_ratio = max(worst_ratio, max(ratios))
            final_ranges.append(max(outputs) - min(outputs))
        input_range = (n - (n - 1) // 3) - 1
        rows.append(
            {
                "n": n,
                "f": (n - 1) // 3,
                "contained%": round(100 * contained / len(SEEDS), 1),
                "worst ratio/round": round(worst_ratio, 3),
                "final range(max)": round(max(final_ranges), 6),
                "halving budget": round(
                    input_range / 2 ** (ITERATIONS - 1), 6
                ),
            }
        )
    return rows


def test_e4_table_and_timing(benchmark):
    rows = build_rows()
    emit_table(
        "e4_approx",
        rows,
        title="E4: approximate agreement (expect contained 100%, ratio"
        " <= 0.5)",
    )
    assert all(row["contained%"] == 100.0 for row in rows)
    assert all(row["worst ratio/round"] <= 0.5 + 1e-9 for row in rows)
    assert all(
        row["final range(max)"] <= row["halving budget"] + 1e-9
        for row in rows
    )

    # Figure: the measured convergence curve vs the theoretical halving
    # envelope, n = 13 under ±1e6 injection.
    result, inputs = one_run(13, 0)
    histories = [result.protocols[n].estimates for n in result.correct_ids]
    measured = [
        max(h[step] for h in histories) - min(h[step] for h in histories)
        for step in range(ITERATIONS)
    ]
    input_range = max(inputs) - min(inputs)
    envelope = [input_range / 2**step for step in range(ITERATIONS)]
    emit_figure(
        "fig_e4_convergence",
        {"measured range": measured, "halving envelope": envelope},
        title="Figure: approximate-agreement range per iteration vs the"
        " 1/2^k envelope (n=13, f=4, ±1e6 injection)",
        x_label="iteration",
        y_label="range",
    )
    benchmark.pedantic(lambda: one_run(13, 0), rounds=5, iterations=1)
