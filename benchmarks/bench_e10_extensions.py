"""E10 — Appendix extensions: terminating RB and renaming in O(f).

Claims (full version's appendix): terminating reliable broadcast decides
in O(f) rounds with all RB properties plus termination; Byzantine
renaming reaches a common compact assignment within ~4f + 3 main-loop
rounds.

Regenerated table: rounds vs f for both, agreement rates (expect 100%).
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary import MembershipLiarStrategy, SilentStrategy
from repro.core.renaming import ByzantineRenaming
from repro.core.terminating_broadcast import TerminatingReliableBroadcast
from repro.sim.runner import Scenario, run_scenario
from repro.sim.rng import make_rng, sparse_ids

from benchmarks._harness import emit_table

SEEDS = range(8)


def trb_run(f: int, seed: int):
    n = 3 * f + 1 if f else 4
    correct = n - f
    rng = make_rng(seed)
    ids = sparse_ids(n, rng)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    sender = sorted(shuffled[:correct])[0]
    scenario = Scenario(
        correct=correct,
        byzantine=f,
        protocol_factory=lambda nid, i: TerminatingReliableBroadcast(
            sender, "m" if nid == sender else None
        ),
        strategy_factory=(lambda nid, i: SilentStrategy()) if f else None,
        seed=seed,
        max_rounds=2 + 5 * (f + 4),
    )
    return run_scenario(scenario)


def renaming_run(f: int, seed: int, liar: bool):
    n = 3 * f + 1 if f else 4
    scenario = Scenario(
        correct=n - f,
        byzantine=f,
        protocol_factory=lambda nid, i: ByzantineRenaming(),
        strategy_factory=(
            (lambda nid, i: MembershipLiarStrategy())
            if liar
            else (lambda nid, i: SilentStrategy())
        )
        if f
        else None,
        seed=seed,
        rushing=True,
        max_rounds=4 * f + 30,
    )
    return run_scenario(scenario)


def build_trb_rows():
    rows = []
    for f in (0, 1, 2, 3):
        rounds = []
        agreed = 0
        for seed in SEEDS:
            result = trb_run(f, seed)
            rounds.append(result.rounds)
            agreed += result.agreed and result.distinct_outputs == {"m"}
        rows.append(
            {
                "f": f,
                "delivered+agreed%": round(100 * agreed / len(SEEDS), 1),
                "rounds(max)": max(rounds),
                "O(f) budget": 2 + 5 * (f + 2),
            }
        )
    return rows


def build_renaming_rows():
    rows = []
    for f in (0, 1, 2, 3):
        for liar in (False, True):
            if f == 0 and liar:
                continue
            rounds = []
            agreed = 0
            for seed in SEEDS:
                result = renaming_run(f, seed, liar)
                rounds.append(result.rounds)
                agreed += result.agreed
            rows.append(
                {
                    "f": f,
                    "adversary": "membership-liar" if liar else "silent",
                    "agreement%": round(100 * agreed / len(SEEDS), 1),
                    "rounds(max)": max(rounds),
                    "4f+3 budget (+init)": 4 * f + 3 + 2 + 2,
                }
            )
    return rows


def test_e10_trb(benchmark):
    rows = build_trb_rows()
    emit_table(
        "e10_trb",
        rows,
        title="E10a: terminating reliable broadcast (expect 100%, O(f)"
        " rounds)",
    )
    assert all(row["delivered+agreed%"] == 100.0 for row in rows)
    assert all(row["rounds(max)"] <= row["O(f) budget"] for row in rows)
    benchmark.pedantic(lambda: trb_run(2, 0), rounds=5, iterations=1)


def test_e10_renaming(benchmark):
    rows = build_renaming_rows()
    emit_table(
        "e10_renaming",
        rows,
        title="E10b: Byzantine renaming (expect 100%, <= 4f+3 main"
        " rounds)",
    )
    assert all(row["agreement%"] == 100.0 for row in rows)
    assert all(
        row["rounds(max)"] <= row["4f+3 budget (+init)"] for row in rows
    )
    benchmark.pedantic(
        lambda: renaming_run(2, 0, True), rounds=5, iterations=1
    )
