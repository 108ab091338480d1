#!/usr/bin/env python3
"""Elastic database cluster: renaming + rotor on sparse machine ids.

The paper's other motivating scenario: "a database cluster that requires
frequent node scaling".  Cloud machines come with sparse, meaningless
identifiers (think instance ids).  Two classical tasks silently assume
consecutive ids and a known f:

* assigning compact shard numbers 1..n to replicas — solved here by
  Byzantine renaming (appendix extension X2);
* electing a rotating sequence of leaders such that one is guaranteed
  correct — solved by the rotor-coordinator (Algorithm 2).

Both run below on a 9-machine cluster (2 Byzantine) whose members know
nothing but their own instance id.

Run:  python examples/elastic_cluster.py
"""

from repro.adversary import MembershipLiarStrategy
from repro.analysis.verdicts import GoodRound, fold
from repro.core.renaming import ByzantineRenaming
from repro.core.rotor import RotorCoordinator
from repro.sim.runner import Scenario, run_scenario


def assign_shards() -> None:
    print("-" * 60)
    print("Step 1: agree on compact shard numbers (Byzantine renaming)")
    print("-" * 60)
    scenario = Scenario(
        correct=7,
        byzantine=2,
        protocol_factory=lambda node_id, index: ByzantineRenaming(),
        # The Byzantine machines vouch for phantom instance ids and
        # reveal themselves to only half the cluster.
        strategy_factory=lambda node_id, index: MembershipLiarStrategy(
            phantoms=2
        ),
        rushing=True,
        seed=31,
        max_rounds=120,
    )
    result = run_scenario(scenario)
    assert result.agreed, "shard assignments diverged!"
    (assignment,) = result.distinct_outputs
    print(f"agreed roster ({len(assignment)} ids): {assignment}")
    for node in result.correct_ids:
        name = result.protocols[node].new_name
        print(f"  instance {node:>7} -> shard #{name}")
    print("every correct machine computed the same mapping ✔\n")


def elect_leaders() -> None:
    print("-" * 60)
    print("Step 2: rotate leaders until one is guaranteed correct (rotor)")
    print("-" * 60)
    scenario = Scenario(
        correct=7,
        byzantine=2,
        protocol_factory=lambda node_id, index: RotorCoordinator(
            opinion=f"plan-by-{index}"
        ),
        strategy_factory=lambda node_id, index: MembershipLiarStrategy(),
        rushing=True,
        seed=32,
        max_rounds=80,
    )
    result = run_scenario(scenario)
    node = result.protocols[result.correct_ids[0]]
    print(f"coordinator rotation: {node.selection_order}")
    print(f"rounds to terminate : {result.rounds}")
    verdicts = fold(result.trace, GoodRound(result.correct_ids))
    assert verdicts == {"good-round": None}, verdicts
    print(
        "a round existed where every machine trusted the same CORRECT\n"
        "leader — without anyone knowing how many machines or faults "
        "exist ✔"
    )


def main() -> None:
    assign_shards()
    elect_leaders()


if __name__ == "__main__":
    main()
