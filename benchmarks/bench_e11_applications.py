"""E11 — Composed applications (§12's "compile the primitives" claim).

The paper argues its primitives compose into higher-level systems
without re-introducing knowledge of n or f.  Two compositions are built
in this repo; interactive consistency (reliable reporting + parallel
consensus, E11a) is an experiment grid
(``benchmarks/specs/e11_interactive_consistency.json``), and this file
measures the other:

* a replicated key-value store = total ordering + a state machine.

Plus the §11 dynamic approximate-agreement claim: the estimate range
halves per round, and joiner inputs can widen it before being absorbed.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

import statistics

from repro.adversary import SilentStrategy
from repro.core.approx_agreement import ContinuousApproximateAgreement
from repro.core.replicated_store import ReplicatedKVStore
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids

from benchmarks._harness import emit_table

SEEDS = range(8)


def kv_run(seed: int, writes: int):
    rng = make_rng(seed)
    ids = sparse_ids(7, rng)
    net = SyncNetwork(seed=seed)
    stores = {}
    for node_id in ids[:5]:
        store = ReplicatedKVStore()
        stores[node_id] = store
        net.add_correct(node_id, store)
    for node_id in ids[5:]:
        net.add_byzantine(node_id, SilentStrategy())
    writers = list(stores.values())
    for step in range(writes):
        writers[step % len(writers)].submit_set(f"key{step}", step)
    net.run(40 + 2 * writes, until_all_halted=False)
    states = [store.state for store in stores.values()]
    identical = all(state == states[0] for state in states)
    return identical, len(states[0]), net.metrics.sends_total


def test_e11_replicated_store(benchmark):
    rows = []
    for writes in (3, 10, 25):
        ok = 0
        applied = []
        for seed in SEEDS:
            identical, keys, _sends = kv_run(seed, writes)
            ok += identical and keys == writes
            applied.append(keys)
        rows.append(
            {
                "writes": writes,
                "replicated+identical%": round(100 * ok / len(SEEDS), 1),
                "keys applied(min)": min(applied),
            }
        )
    emit_table(
        "e11_replicated_store",
        rows,
        title="E11b: replicated KV store on total ordering (expect"
        " 100%)",
    )
    assert all(row["replicated+identical%"] == 100.0 for row in rows)
    benchmark.pedantic(lambda: kv_run(0, 5), rounds=2, iterations=1)


def churn_approx_run(seed: int):
    rng = make_rng(seed)
    ids = sparse_ids(8, rng)
    veterans, joiner = ids[:7], ids[7]
    schedule = MembershipSchedule()
    schedule.join(
        6, joiner, lambda: ContinuousApproximateAgreement(100.0)
    )
    net = SyncNetwork(seed=seed, membership=schedule)
    for index, node_id in enumerate(veterans):
        net.add_correct(
            node_id, ContinuousApproximateAgreement(float(index))
        )
    ranges = []
    for _ in range(16):
        net.step()
        estimates = [
            p.estimate for p in net.protocols().values() if p.history
        ]
        if estimates:
            ranges.append(round(max(estimates) - min(estimates), 4))
    return ranges


def test_e11_dynamic_approx(benchmark):
    all_ranges = [churn_approx_run(seed) for seed in SEEDS]
    # ranges per round, averaged over seeds (same length by construction)
    length = min(len(r) for r in all_ranges)
    rows = [
        {
            "round": step + 1,
            "range(mean)": round(
                statistics.fmean(r[step] for r in all_ranges), 4
            ),
            "range(max)": max(r[step] for r in all_ranges),
        }
        for step in range(length)
    ]
    emit_table(
        "e11_dynamic_approx",
        rows,
        title="E11c: dynamic approximate agreement — a 100.0 joiner at"
        " round 6 widens the range, trimming re-absorbs it",
    )
    # the widening is visible ...
    assert max(row["range(max)"] for row in rows[5:8]) > 50
    # ... and converges by the end
    assert rows[-1]["range(max)"] < 1.0
    benchmark.pedantic(lambda: churn_approx_run(0), rounds=3, iterations=1)
