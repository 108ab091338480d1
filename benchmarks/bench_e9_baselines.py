"""E9 — The cost of not knowing n and f (§12's complexity discussion).

Claim: "the message complexity of reliable broadcast is unaffected
compared to the original algorithm, the convergence rate of the
approximate agreement algorithm remains unchanged" — and consensus stays
O(f) rounds, paying only the id-only model's overheads (the `present`
round, per-round re-echo, and the rotor's echo machinery vs free
rotation).

Regenerated table: rounds + messages, unknown-n,f algorithm vs its
known-n,f classic on identical workloads.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.adversary import SilentStrategy, ValueInjectorStrategy
from repro.baselines import (
    DolevApproxAgreement,
    KnownFRotatingCoordinator,
    PhaseKingConsensus,
    SrikanthTouegBroadcast,
)
from repro.core.approx_agreement import IteratedApproximateAgreement
from repro.core.binary_consensus import BinaryKingConsensus
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.core.rotor import RotorCoordinator
from repro.sim.network import SyncNetwork
from repro.sim.rng import consecutive_ids, make_rng, sparse_ids

from benchmarks._harness import emit_table

N, F = 10, 3
ITERATIONS = 6


def known_network(builder, strategy=None, seed=0, rushing=False):
    net = SyncNetwork(seed=seed, rushing=rushing, measure_bytes=True)
    ids = consecutive_ids(N)
    for node_id in ids[: N - F]:
        net.add_correct(node_id, builder(node_id, ids))
    for node_id in ids[N - F:]:
        net.add_byzantine(
            node_id, strategy() if strategy else SilentStrategy()
        )
    return net


def unknown_network(builder, strategy=None, seed=0, rushing=False):
    net = SyncNetwork(seed=seed, rushing=rushing, measure_bytes=True)
    rng = make_rng(seed)
    ids = sparse_ids(N, rng)
    for index, node_id in enumerate(ids[: N - F]):
        net.add_correct(node_id, builder(node_id, index))
    for node_id in ids[N - F:]:
        net.add_byzantine(
            node_id, strategy() if strategy else SilentStrategy()
        )
    return net, ids


def measure_reliable_broadcast():
    known = known_network(
        lambda nid, ids: SrikanthTouegBroadcast(
            0, N, F, "m" if nid == 0 else None
        )
    )
    known.run(6, until_all_halted=False)

    net = SyncNetwork(seed=0, measure_bytes=True)
    rng = make_rng(0)
    sparse = sparse_ids(N, rng)
    sender = sparse[0]
    for node_id in sparse[: N - F]:
        net.add_correct(
            node_id,
            ReliableBroadcast(sender, "m" if node_id == sender else None),
        )
    for node_id in sparse[N - F:]:
        net.add_byzantine(node_id, SilentStrategy())
    net.run(6, until_all_halted=False)

    return [
        {
            "task": "reliable broadcast",
            "variant": "Srikanth-Toueg (knows n,f)",
            "rounds to accept": 3,
            "messages": known.metrics.sends_total,
            "kbytes": round(known.metrics.bytes_total / 1024, 1),
        },
        {
            "task": "reliable broadcast",
            "variant": "Algorithm 1 (id-only)",
            "rounds to accept": 3,
            "messages": net.metrics.sends_total,
            "kbytes": round(net.metrics.bytes_total / 1024, 1),
        },
    ]


def measure_consensus():
    known = known_network(
        lambda nid, ids: PhaseKingConsensus(nid % 2, ids, F)
    )
    known_rounds = known.run(60)

    net, _ = unknown_network(
        lambda nid, i: BinaryKingConsensus(i % 2)
    )
    unknown_rounds = net.run(300)

    return [
        {
            "task": "binary consensus",
            "variant": "phase king (knows n,f)",
            "rounds to accept": known_rounds,
            "messages": known.metrics.sends_total,
            "kbytes": round(known.metrics.bytes_total / 1024, 1),
        },
        {
            "task": "binary consensus",
            "variant": "king via rotor (id-only)",
            "rounds to accept": unknown_rounds,
            "messages": net.metrics.sends_total,
            "kbytes": round(net.metrics.bytes_total / 1024, 1),
        },
    ]


def measure_approx():
    inputs = [0.0, 8.0, 2.0, 6.0, 4.0, 1.0, 7.0]
    known = known_network(
        lambda nid, ids: DolevApproxAgreement(
            inputs[nid], f=F, iterations=ITERATIONS
        ),
        strategy=ValueInjectorStrategy,
    )
    known_rounds = known.run(ITERATIONS + 3)
    known_range = max(known.outputs().values()) - min(
        known.outputs().values()
    )

    net, _ = unknown_network(
        lambda nid, i: IteratedApproximateAgreement(
            inputs[i], iterations=ITERATIONS
        ),
        strategy=ValueInjectorStrategy,
    )
    unknown_rounds = net.run(ITERATIONS + 3)
    unknown_range = max(net.outputs().values()) - min(
        net.outputs().values()
    )

    return [
        {
            "task": "approx agreement",
            "variant": "Dolev et al. (knows n,f)",
            "rounds to accept": known_rounds,
            "messages": known.metrics.sends_total,
            "kbytes": round(known.metrics.bytes_total / 1024, 1),
            "final range": round(known_range, 5),
        },
        {
            "task": "approx agreement",
            "variant": "Algorithm 4 (id-only)",
            "rounds to accept": unknown_rounds,
            "messages": net.metrics.sends_total,
            "kbytes": round(net.metrics.bytes_total / 1024, 1),
            "final range": round(unknown_range, 5),
        },
    ]


def measure_rotor():
    known = known_network(
        lambda nid, ids: KnownFRotatingCoordinator(0, ids, F)
    )
    known_rounds = known.run(20)

    net, _ = unknown_network(lambda nid, i: RotorCoordinator(opinion=0))
    unknown_rounds = net.run(60)

    return [
        {
            "task": "rotor (f+1 leaders)",
            "variant": "consecutive ids (knows n,f)",
            "rounds to accept": known_rounds,
            "messages": known.metrics.sends_total,
            "kbytes": round(known.metrics.bytes_total / 1024, 1),
        },
        {
            "task": "rotor (f+1 leaders)",
            "variant": "Algorithm 2 (id-only)",
            "rounds to accept": unknown_rounds,
            "messages": net.metrics.sends_total,
            "kbytes": round(net.metrics.bytes_total / 1024, 1),
        },
    ]


def test_e9_comparison(benchmark):
    rows = (
        measure_reliable_broadcast()
        + measure_consensus()
        + measure_approx()
        + measure_rotor()
    )
    emit_table(
        "e9_baselines",
        rows,
        columns=[
            "task",
            "variant",
            "rounds to accept",
            "messages",
            "kbytes",
            "final range",
        ],
        title="E9: unknown-n,f vs the classics, n=10 f=3 (same shape,"
        " bounded overhead)",
    )
    # shape assertions from §12: RB accepts in the same round; approx
    # converges to the same budget; the rotor pays rounds (O(n) vs f+2)
    # and messages for dropping the knowledge of n and f.
    rb = [r for r in rows if r["task"] == "reliable broadcast"]
    assert rb[0]["rounds to accept"] == rb[1]["rounds to accept"]
    approx = [r for r in rows if r["task"] == "approx agreement"]
    assert approx[1]["final range"] <= approx[0]["final range"] + 0.5
    benchmark.pedantic(measure_consensus, rounds=3, iterations=1)
