"""E1 — Reliable broadcast properties for n > 3f (Theorem 5.5).

Claim: Algorithm 1 satisfies correctness, unforgeability, and relay with
the optimal resiliency n > 3f, without any node knowing n or f.

Regenerated table: per (n, adversary), the fraction of seeded runs in
which all three properties held, plus round/message costs.  Expected
shape: 100% everywhere, acceptance always in round 3 for a correct
sender.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary import (
    EchoForgerStrategy,
    MembershipLiarStrategy,
    SilentStrategy,
)
from repro.analysis.checkers import check_reliable_broadcast
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.sim.runner import Scenario, run_scenario
from repro.sim.rng import make_rng, sparse_ids

from benchmarks._harness import emit_table

ADVERSARIES = {
    "silent": SilentStrategy,
    "echo-forger": EchoForgerStrategy,
    "membership-liar": MembershipLiarStrategy,
}
SEEDS = range(10)


def one_run(n: int, adversary: str, seed: int):
    f = (n - 1) // 3
    correct = n - f
    rng = make_rng(seed)
    ids = sparse_ids(n, rng)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    sender = sorted(shuffled[:correct])[0]
    scenario = Scenario(
        correct=correct,
        byzantine=f,
        protocol_factory=lambda nid, i: ReliableBroadcast(
            sender, "m" if nid == sender else None
        ),
        strategy_factory=lambda nid, i: ADVERSARIES[adversary](),
        seed=seed,
        rushing=True,
        max_rounds=8,
        until_all_halted=False,
    )
    result = run_scenario(scenario)
    report = check_reliable_broadcast(result, sender, "m", True)
    return result, report


def build_rows():
    rows = []
    for n in (4, 10, 22, 40):
        for adversary in ADVERSARIES:
            ok = 0
            sends = []
            accept_rounds = []
            for seed in SEEDS:
                result, report = one_run(n, adversary, seed)
                ok += report.ok
                sends.append(result.metrics.sends_total)
                accept_rounds.extend(
                    p.accepted.get(("m", next(iter(p.accepted))[1]), 0)
                    if p.accepted
                    else 0
                    for p in result.protocols.values()
                )
            rows.append(
                {
                    "n": n,
                    "f": (n - 1) // 3,
                    "adversary": adversary,
                    "properties ok%": round(100 * ok / len(SEEDS), 1),
                    "accept round(max)": max(accept_rounds),
                    "msgs(mean)": round(sum(sends) / len(sends)),
                }
            )
    return rows


def test_e1_table_and_timing(benchmark):
    rows = build_rows()
    emit_table(
        "e1_reliable_broadcast",
        rows,
        title="E1: reliable broadcast properties (expect 100% ok, accept"
        " round 3)",
    )
    assert all(row["properties ok%"] == 100.0 for row in rows)
    assert all(row["accept round(max)"] == 3 for row in rows)
    benchmark.pedantic(
        lambda: one_run(10, "echo-forger", 0), rounds=5, iterations=1
    )
