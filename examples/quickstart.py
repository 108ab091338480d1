#!/usr/bin/env python3
"""Quickstart: Byzantine consensus without knowing n or f.

Seven correct nodes with conflicting opinions, two Byzantine nodes that
actively try to split the vote — and no node knows how many participants
or faults exist.  The early-terminating consensus of the paper
(Algorithm 3) still drives every correct node to one common output.

Run:  python examples/quickstart.py
"""

from repro.adversary import QuorumSplitterStrategy
from repro.analysis.verdicts import Agreement, Validity, fold
from repro.core.consensus import EarlyConsensus
from repro.sim.runner import Scenario, run_scenario


def main() -> None:
    inputs = [1, 0, 1, 0, 1, 0, 1]  # the correct nodes' opinions

    scenario = Scenario(
        correct=7,
        byzantine=2,
        # Each correct node runs Algorithm 3 with its own opinion.  Note
        # that the protocol receives *no* information about n or f.
        protocol_factory=lambda node_id, index: EarlyConsensus(
            inputs[index]
        ),
        # The adversary runs the honest protocol but tells half the
        # network "0" and the other half "1" at every opportunity.
        strategy_factory=lambda node_id, index: QuorumSplitterStrategy(
            EarlyConsensus(0)
        ),
        rushing=True,  # Byzantine nodes see correct traffic before talking
        seed=2024,
    )
    result = run_scenario(scenario)

    print(f"correct nodes : {result.correct_ids}")
    print(f"byzantine     : {result.byzantine_ids}")
    print(f"rounds        : {result.rounds}")
    print(f"messages      : {result.metrics.sends_total}")
    print(f"outputs       : {result.outputs}")

    # Judge the run from its event trace: every correct node decided one
    # value, and that value was some correct node's input.
    verdicts = fold(
        result.trace, Agreement(result.correct_ids), Validity(inputs)
    )
    assert verdicts == {"agreement": None, "validity": None}, verdicts
    decision = next(iter(result.distinct_outputs))
    print(f"\nAgreement reached on {decision!r} — despite nobody knowing "
          "n or f.")


if __name__ == "__main__":
    main()
