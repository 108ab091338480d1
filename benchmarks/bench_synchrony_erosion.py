"""Ablation A5 — the synchrony assumption is load-bearing.

§9 proves agreement with unknown n, f is impossible without synchrony.
The complementary executable statement: take the *proven-correct*
synchronous consensus and erode its delivery guarantee with i.i.d.
message loss.  The regenerated series shows the guarantee degrading
smoothly from 100% to 0% as the loss rate grows — there is no clever
protocol trick hiding in the margins, exactly as the impossibility
results predict.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.core.consensus import EarlyConsensus
from repro.errors import SimulationError
from repro.sim.lossy import LossyNetwork
from repro.sim.rng import make_rng, sparse_ids

from benchmarks._harness import emit_table

SEEDS = range(10)


def one_run(drop_rate: float, seed: int):
    rng = make_rng(seed)
    ids = sparse_ids(7, rng)
    net = LossyNetwork(drop_rate, seed=seed)
    for index, node_id in enumerate(ids):
        net.add_correct(node_id, EarlyConsensus(index % 2))
    net.run(80)
    return net


def build_rows():
    rows = []
    for drop_rate in (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6):
        agreed = 0
        livelocked = 0
        disagreed = 0
        for seed in SEEDS:
            try:
                net = one_run(drop_rate, seed)
            except SimulationError:
                livelocked += 1
                continue
            outputs = net.outputs()
            if len(outputs) == 7 and len(set(outputs.values())) == 1:
                agreed += 1
            else:
                disagreed += 1
        rows.append(
            {
                "drop rate": drop_rate,
                "agreement%": round(100 * agreed / len(SEEDS), 1),
                "livelock%": round(100 * livelocked / len(SEEDS), 1),
                "disagreement%": round(100 * disagreed / len(SEEDS), 1),
            }
        )
    return rows


def test_synchrony_erosion(benchmark):
    rows = build_rows()
    emit_table(
        "ablation_synchrony_erosion",
        rows,
        title="Ablation A5: consensus vs message loss (the synchrony"
        " assumption at work)",
    )
    assert rows[0]["agreement%"] == 100.0  # lossless: the proven case
    assert rows[-1]["agreement%"] < 50.0  # heavy loss: guarantee gone
    # degradation is monotone-ish: the last rate is never better than
    # the first nonzero one
    assert rows[-1]["agreement%"] <= rows[1]["agreement%"]
    benchmark.pedantic(lambda: one_run(0.05, 0), rounds=5, iterations=1)
