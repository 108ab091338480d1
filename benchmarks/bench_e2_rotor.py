"""E2 — Rotor-coordinator: good round + O(n) termination (Theorem 6.3).

Claim: every correct node terminates within O(n) rounds and witnesses a
round in which all correct nodes accepted the opinion of one common,
correct coordinator — with unknown n, f and sparse ids.

Regenerated series: max termination round vs n (expect linear, slope
~1), good-round rate (expect 100%), across adversaries including a
coordinator usurper.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary import (
    CoordinatorUsurperStrategy,
    MembershipLiarStrategy,
    PresentOnlyStrategy,
)
from repro.analysis.checkers import check_rotor_good_round
from repro.core.rotor import RotorCoordinator
from repro.sim.runner import Scenario, run_scenario

from benchmarks._harness import emit_table

SEEDS = range(10)


def make_strategy(name):
    if name == "present-only":
        return lambda nid, i: PresentOnlyStrategy()
    if name == "usurper":
        return lambda nid, i: CoordinatorUsurperStrategy(
            RotorCoordinator(opinion="evil")
        )
    if name == "membership-liar":
        return lambda nid, i: MembershipLiarStrategy()
    raise ValueError(name)


def one_run(n: int, adversary: str, seed: int):
    f = (n - 1) // 3
    scenario = Scenario(
        correct=n - f,
        byzantine=f,
        protocol_factory=lambda nid, i: RotorCoordinator(opinion=i),
        strategy_factory=make_strategy(adversary),
        seed=seed,
        rushing=True,
        max_rounds=3 * n + 20,
    )
    result = run_scenario(scenario)
    return result, check_rotor_good_round(result)


def build_rows():
    rows = []
    for n in (4, 7, 13, 25, 49):
        for adversary in ("present-only", "usurper", "membership-liar"):
            good = 0
            rounds = []
            for seed in SEEDS:
                result, report = one_run(n, adversary, seed)
                good += report.ok
                rounds.append(result.rounds)
            rows.append(
                {
                    "n": n,
                    "adversary": adversary,
                    "good round%": round(100 * good / len(SEEDS), 1),
                    "rounds(max)": max(rounds),
                    "rounds/n": round(max(rounds) / n, 2),
                }
            )
    return rows


def test_e2_table_and_timing(benchmark):
    rows = build_rows()
    emit_table(
        "e2_rotor",
        rows,
        title="E2: rotor-coordinator (expect 100% good rounds, rounds"
        " linear in n)",
    )
    assert all(row["good round%"] == 100.0 for row in rows)
    # linearity: max rounds stays within a small multiple of n ...
    assert all(row["rounds(max)"] <= 2 * row["n"] + 6 for row in rows)
    # ... and the fitted growth curve is genuinely linear, not worse
    from repro.analysis.complexity import classify_growth

    per_n = {}
    for row in rows:
        per_n.setdefault(row["n"], []).append(row["rounds(max)"])
    ns = sorted(per_n)
    verdict = classify_growth(ns, [max(per_n[n]) for n in ns])
    assert verdict.is_linear_or_better, verdict
    benchmark.pedantic(
        lambda: one_run(13, "usurper", 0), rounds=5, iterations=1
    )
