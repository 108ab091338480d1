"""Scale sweep — message/byte complexity growth across the portfolio.

The paper's §12 discusses complexity only qualitatively.  This bench
measures it: per protocol, logical messages per node per round as n
grows, with a fitted growth verdict.  Expected shapes:

* approximate agreement broadcasts one value per round — per-node load
  stays constant;
* consensus and renaming carry the echo machinery (one ``echo(p)``
  message per candidate id), so per-node load grows linearly in n and
  system-wide polynomially — the classical message complexity of the
  algorithms they generalize, consistent with §12's "message complexity
  ... is unaffected".

Nothing may grow superlinearly per node: that would be a regression
against the classics.
"""

# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from repro.analysis.complexity import classify_growth
from repro.core.approx_agreement import IteratedApproximateAgreement
from repro.core.consensus import EarlyConsensus
from repro.core.renaming import ByzantineRenaming
from repro.sim.runner import Scenario, run_scenario

from benchmarks._harness import emit_table

SIZES = (4, 8, 16, 32, 64)


def run_protocol(name: str, correct: int, seed: int = 0):
    factories = {
        "consensus": lambda nid, i: EarlyConsensus(i % 2),
        "approx(6 iter)": lambda nid, i: IteratedApproximateAgreement(
            float(i), iterations=6
        ),
        "renaming": lambda nid, i: ByzantineRenaming(),
    }
    scenario = Scenario(
        correct=correct,
        protocol_factory=factories[name],
        seed=seed,
        max_rounds=5 * correct + 60,
    )
    return run_scenario(scenario)


def build_rows():
    rows = []
    verdicts = {}
    for name in ("consensus", "approx(6 iter)", "renaming"):
        sends_per_node_round = []
        for correct in SIZES:
            result = run_protocol(name, correct)
            per_node_round = result.metrics.sends_total / (
                correct * result.rounds
            )
            sends_per_node_round.append(per_node_round)
            rows.append(
                {
                    "protocol": name,
                    "n": correct,
                    "rounds": result.rounds,
                    "msgs total": result.metrics.sends_total,
                    "msgs/node/round": round(per_node_round, 2),
                }
            )
        verdicts[name] = classify_growth(
            list(SIZES), sends_per_node_round, constant_tolerance=0.6
        )
    return rows, verdicts


def test_scale_sweep(benchmark):
    rows, verdicts = build_rows()
    for name, verdict in verdicts.items():
        rows.append(
            {
                "protocol": name,
                "n": "fit",
                "rounds": "",
                "msgs total": "",
                "msgs/node/round": f"{verdict.kind}",
            }
        )
    emit_table(
        "scale_sweep",
        rows,
        title="Scale: per-node per-round message load vs n (approx:"
        " constant; echo-based protocols: linear)",
    )
    # per-node per-round load must not grow superlinearly with n
    assert all(
        verdict.kind in ("constant", "linear")
        for verdict in verdicts.values()
    ), {k: v.kind for k, v in verdicts.items()}
    benchmark.pedantic(
        lambda: run_protocol("consensus", 32), rounds=2, iterations=1
    )
