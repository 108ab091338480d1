#!/usr/bin/env python3
"""A permissioned ledger on a network with churn (Algorithm 6).

The paper's dynamic total ordering is, in effect, a small permissioned
blockchain: nodes submit transactions, the network agrees on a total
order, new replicas can join mid-flight (present/ack handshake) and old
ones can retire — all while nobody knows the current network size or the
number of Byzantine replicas, as long as n > 3f holds per round.

This example runs a 7-replica cluster with 2 silent Byzantine members,
scales up by 2 replicas mid-run, retires one founding replica, and shows
every replica holding an identical transaction log (chain-prefix), with
the newcomers' transactions included.

Run:  python examples/dynamic_ledger.py
"""

from repro.adversary import SilentStrategy
from repro.analysis.verdicts import ChainPrefix, fold
from repro.core.total_order import TotalOrderNode, events_from_dict
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids

FOUNDERS = 7
BYZANTINE = 2
NEWCOMERS = 2
ROUNDS = 110


def transaction_plan(name: str, cadence: int, start: int = 2) -> dict:
    """A replica submitting 'transfer' transactions every few rounds."""
    return {
        r: f"tx:{name}@{r}" for r in range(start, 60, cadence)
    }


def main() -> None:
    rng = make_rng(1234)
    ids = sparse_ids(FOUNDERS + BYZANTINE + NEWCOMERS, rng)
    founder_ids = ids[:FOUNDERS]
    byzantine_ids = ids[FOUNDERS: FOUNDERS + BYZANTINE]
    newcomer_ids = ids[FOUNDERS + BYZANTINE:]

    membership = MembershipSchedule()
    for offset, newcomer in enumerate(newcomer_ids):
        join_round = 20 + 8 * offset
        membership.join(
            join_round,
            newcomer,
            (lambda k: lambda: TotalOrderNode(
                event_source=events_from_dict(
                    transaction_plan(f"new{k}", 5, start=45)
                ),
                seed=False,
            ))(offset),
        )

    network = SyncNetwork(seed=1234, membership=membership)
    replicas = {}
    for index, node_id in enumerate(founder_ids):
        replica = TotalOrderNode(
            event_source=events_from_dict(
                transaction_plan(f"founder{index}", 6 + index % 3)
            )
        )
        if index == 0:
            replica.leave_at = 40  # the first founder retires
        replicas[node_id] = replica
        network.add_correct(node_id, replica)
    for node_id in byzantine_ids:
        network.add_byzantine(node_id, SilentStrategy())

    network.run(ROUNDS, until_all_halted=False)

    print("ledger state per replica:")
    chains = {}
    for node_id, replica in network.protocols().items():
        role = (
            "founder" if node_id in founder_ids
            else "newcomer"
        )
        status = "retired" if replica.halted else "active"
        chain = (
            list(replica.output) if replica.halted else replica.chain
        )
        chains[node_id] = chain
        print(
            f"  {role:8s} {node_id:>7}: {len(chain):3d} transactions "
            f"finalized ({status})"
        )

    verdicts = fold(network.trace, ChainPrefix())
    assert verdicts == {"chain-prefix": None}, verdicts
    print("\nchain-prefix holds across every replica ✔")

    longest = max(chains.values(), key=len)
    newcomer_txs = [e for e in longest if "new" in str(e[2])]
    print(f"newcomer transactions in the ledger: {len(newcomer_txs)}")
    assert newcomer_txs, "newcomer transactions should have been ordered"

    print("\nfirst 10 ledger entries (round, submitter, tx):")
    for entry in longest[:10]:
        print(f"  {entry}")


if __name__ == "__main__":
    main()
