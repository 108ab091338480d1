"""E3 — Consensus terminates in O(f) rounds (Theorem 7.5).

Claim: Algorithm 3 solves consensus in O(f) rounds — rounds grow with
the failure bound, not with n — plus a one-phase fast path on unanimous
inputs.

Regenerated series: (a) rounds vs f at the tight population n = 3f + 1,
(b) rounds vs n at fixed f (expect flat), (c) the unanimous fast path.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary import QuorumSplitterStrategy
from repro.core.consensus import EarlyConsensus
from repro.sim.runner import Scenario, run_scenario

from benchmarks._harness import emit_table

SEEDS = range(10)


def one_run(correct: int, f: int, seed: int, unanimous: bool = False):
    scenario = Scenario(
        correct=correct,
        byzantine=f,
        protocol_factory=lambda nid, i: EarlyConsensus(
            1 if unanimous else i % 2
        ),
        strategy_factory=(
            lambda nid, i: QuorumSplitterStrategy(EarlyConsensus(0))
        )
        if f
        else None,
        seed=seed,
        rushing=True,
        max_rounds=2 + 5 * (2 * f + 6) + 100,
    )
    return run_scenario(scenario)


def build_rounds_vs_f():
    rows = []
    for f in (0, 1, 2, 3, 4, 5):
        rounds = []
        agreed = 0
        for seed in SEEDS:
            result = one_run(2 * f + 3, f, seed)
            rounds.append(result.rounds)
            agreed += result.agreed
        rows.append(
            {
                "f": f,
                "n": 3 * f + 3,
                "ok%": round(100 * agreed / len(SEEDS), 1),
                "rounds(mean)": round(sum(rounds) / len(rounds), 1),
                "rounds(max)": max(rounds),
                "phases(max)": (max(rounds) - 2) // 5,
            }
        )
    return rows


def build_rounds_vs_n():
    rows = []
    for correct in (6, 12, 24, 48):
        rounds = []
        for seed in SEEDS:
            result = one_run(correct, 1, seed)
            rounds.append(result.rounds)
        rows.append(
            {
                "n": correct + 1,
                "f": 1,
                "rounds(mean)": round(sum(rounds) / len(rounds), 1),
                "rounds(max)": max(rounds),
            }
        )
    return rows


def test_e3_rounds_vs_f(benchmark):
    rows = build_rounds_vs_f()
    emit_table(
        "e3_rounds_vs_f",
        rows,
        title="E3a: consensus rounds vs f at n=3f+3 (expect linear in f)",
    )
    assert all(row["ok%"] == 100.0 for row in rows)
    # O(f): phases bounded by f + small constant
    for row in rows:
        assert row["phases(max)"] <= row["f"] + 3
    benchmark.pedantic(lambda: one_run(7, 2, 0), rounds=5, iterations=1)


def test_e3_rounds_vs_n(benchmark):
    rows = build_rounds_vs_n()
    emit_table(
        "e3_rounds_vs_n",
        rows,
        title="E3b: consensus rounds vs n at f=1 (expect flat)",
    )
    spread = max(r["rounds(max)"] for r in rows) - min(
        r["rounds(max)"] for r in rows
    )
    assert spread <= 10
    from repro.analysis.complexity import classify_growth

    verdict = classify_growth(
        [r["n"] for r in rows], [r["rounds(mean)"] for r in rows]
    )
    assert verdict.kind == "constant", verdict
    benchmark.pedantic(lambda: one_run(24, 1, 0), rounds=3, iterations=1)


def test_e3_unanimous_fast_path(benchmark):
    rows = []
    for f in (1, 2, 3):
        rounds = {
            one_run(2 * f + 3, f, seed, unanimous=True).rounds
            for seed in SEEDS
        }
        rows.append({"f": f, "rounds": sorted(rounds)})
    emit_table(
        "e3_fast_path",
        [{"f": r["f"], "rounds(all seeds)": str(r["rounds"])} for r in rows],
        title="E3c: unanimous-input fast path (expect exactly 7 rounds:"
        " 2 init + 1 phase)",
    )
    assert all(r["rounds"] == [7] for r in rows)
    benchmark.pedantic(
        lambda: one_run(7, 2, 0, unanimous=True), rounds=5, iterations=1
    )
