"""E12 — Clock synchronization on approximate agreement.

The paper's related work cites approximate agreement as the primitive
behind Byzantine clock synchronization; §12 argues the primitives
compose without knowing n or f.  This bench runs drifting clocks with
and without the Algorithm-4 resync — under Byzantine clock injection —
and reports the skew trajectory.

Expected shape: unsynchronized skew grows linearly with time;
synchronized skew plateaus at O(max-drift · resync-interval) regardless
of the adversary.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

import statistics

from repro.adversary import ValueInjectorStrategy
from repro.analysis.report import sparkline
from repro.core.clock_sync import ClockSyncNode, max_skew
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids

from benchmarks._harness import emit_figure, emit_table

DRIFTS = [0.02, -0.02, 0.01, -0.01, 0.015, -0.015, 0.0]
HORIZON = 80
SEEDS = range(5)


def one_run(resync_every: int, byzantine: int, seed: int):
    rng = make_rng(seed)
    ids = sparse_ids(len(DRIFTS) + byzantine, rng)
    net = SyncNetwork(seed=seed, rushing=True)
    nodes = []
    for index, node_id in enumerate(ids[: len(DRIFTS)]):
        node = ClockSyncNode(
            drift=DRIFTS[index], resync_every=resync_every
        )
        nodes.append(node)
        net.add_correct(node_id, node)
    for node_id in ids[len(DRIFTS):]:
        net.add_byzantine(node_id, ValueInjectorStrategy(-1e6, 1e6))
    net.run(HORIZON, until_all_halted=False)
    return nodes


def skew_stats(resync_every: int, byzantine: int):
    finals = []
    trajectories = []
    for seed in SEEDS:
        nodes = one_run(resync_every, byzantine, seed)
        trajectory = [
            max_skew(nodes, step) for step in range(0, HORIZON, 8)
        ]
        trajectories.append(trajectory)
        finals.append(
            max(max_skew(nodes, step) for step in range(HORIZON - 20,
                                                        HORIZON))
        )
    mean_trajectory = [
        statistics.fmean(t[i] for t in trajectories)
        for i in range(len(trajectories[0]))
    ]
    return statistics.fmean(finals), mean_trajectory


def build_rows():
    rows = []
    curves = {}
    for label, resync, byz in (
        ("no sync", 10**6, 0),
        ("resync/5", 5, 0),
        ("resync/5 + 2 byz", 5, 2),
        ("resync/15 + 2 byz", 15, 2),
    ):
        final, trajectory = skew_stats(resync, byz)
        curves[label] = trajectory
        rows.append(
            {
                "configuration": label,
                "steady skew": round(final, 3),
                "trajectory": sparkline(trajectory),
            }
        )
    return rows, curves


def test_e12_clock_sync(benchmark):
    rows, curves = build_rows()
    emit_table(
        "e12_clock_sync",
        rows,
        title="E12: clock skew over 80 rounds (drift ±2%; sync ="
        " Algorithm 4)",
    )
    emit_figure(
        "fig_e12_skew",
        {"no sync": curves["no sync"],
         "resync/5 + 2 byz": curves["resync/5 + 2 byz"]},
        title="Figure: clock skew trajectory, unsynchronized vs"
        " Algorithm-4 resync under Byzantine injection",
        x_label="rounds (x8)",
        y_label="skew",
    )
    by_label = {row["configuration"]: row["steady skew"] for row in rows}
    assert by_label["no sync"] > 2.0  # linear divergence
    assert by_label["resync/5"] < 0.6
    assert by_label["resync/5 + 2 byz"] < 0.6  # adversary changes nothing
    assert by_label["resync/15 + 2 byz"] > by_label["resync/5 + 2 byz"]
    benchmark.pedantic(lambda: one_run(5, 2, 0), rounds=3, iterations=1)
