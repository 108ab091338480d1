#!/usr/bin/env python3
"""The same consensus protocol, on real TCP sockets.

Everything else in this repository runs on the deterministic simulator;
this example runs Algorithm 3 over actual localhost sockets with
lock-step rounds paced at Δ = 200 ms — the classic way to realise a
synchronous round model on a network whose delays are bounded well under
Δ.  The protocol class is byte-for-byte the one the simulator runs.

Run:  python examples/net_cluster.py
"""

import time

from repro.core import EarlyConsensus, InteractiveConsistency
from repro.net import LocalCluster


def main() -> None:
    print("consensus over TCP (5 nodes, mixed inputs 0/1, Δ = 200 ms)")
    started = time.time()
    cluster = LocalCluster(
        5,
        lambda node_id, index: EarlyConsensus(index % 2),
        period=0.2,
    )
    outputs = cluster.run(timeout=20)
    elapsed = time.time() - started
    print(f"  outputs : {outputs}")
    assert len(set(outputs.values())) == 1, "disagreement over TCP?!"
    rounds = max(r.round for r in cluster.runners.values())
    print(f"  agreed on {next(iter(outputs.values()))!r} in {rounds} "
          f"rounds / {elapsed:.2f}s wall clock")

    print("\ninteractive consistency over TCP (4 nodes)")
    cluster = LocalCluster(
        4,
        lambda node_id, index: InteractiveConsistency(f"report-{index}"),
        period=0.2,
    )
    outputs = cluster.run(timeout=20)
    (vector,) = set(outputs.values())
    print("  agreed vector:")
    for node_id, value in vector:
        print(f"    {node_id:>7} -> {value}")
    print("\nsame Protocol classes, real sockets ✔")


if __name__ == "__main__":
    main()
