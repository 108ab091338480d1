"""The paper's algorithms: Byzantine agreement with unknown ``n`` and ``f``.

Every protocol here runs in the *id-only* model: a node knows its own
identifier and input, and nothing else — not the number of participants
``n``, not the failure bound ``f``.  The shared trick is to replace the
classical ``f``-based thresholds with fractions of ``n_v``, the number of
distinct nodes a node ``v`` has heard from, which is sound for ``n > 3f``
because every correct node announces itself in round one.

Modules (paper algorithm numbers in parentheses):

* :mod:`~repro.core.quorum` — threshold arithmetic and echo-voting shared
  by everything below;
* :mod:`~repro.core.reliable_broadcast` (Alg 1) — correctness /
  unforgeability / relay;
* :mod:`~repro.core.rotor` (Alg 2) — rotate through enough coordinators
  that a common correct one is guaranteed;
* :mod:`~repro.core.consensus` (Alg 3) — early-terminating consensus in
  ``O(f)`` rounds;
* :mod:`~repro.core.approx_agreement` (Alg 4) — trim-and-midpoint
  approximate agreement, iterated and dynamic;
* :mod:`~repro.core.parallel_consensus` (Alg 5) — many joinable consensus
  instances in parallel;
* :mod:`~repro.core.total_order` (Alg 6) — totally ordering events in a
  dynamic network;
* :mod:`~repro.core.terminating_broadcast`,
  :mod:`~repro.core.renaming`,
  :mod:`~repro.core.binary_consensus` — the full version's appendix
  algorithms (see DESIGN.md §1).
"""

from repro.core.quorum import (
    EchoVoting,
    ViewTracker,
    at_least_third,
    at_least_two_thirds,
    less_than_third,
)
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.core.reliable_channel import ReliableChannel
from repro.core.rotor import RotorCoordinator, RotorCore
from repro.core.consensus import EarlyConsensus
from repro.core.approx_agreement import (
    ApproximateAgreement,
    ContinuousApproximateAgreement,
    trim_and_midpoint,
)
from repro.core.committee import committee_size, sample_committee
from repro.core.implicit_agreement import (
    CommitteeConsensus,
    CommitteeParallelConsensus,
)
from repro.core.interactive_consistency import InteractiveConsistency
from repro.core.parallel_consensus import ParallelConsensus
from repro.core.replicated_store import ReplicatedKVStore
from repro.core.total_order import TotalOrderNode
from repro.core.terminating_broadcast import TerminatingReliableBroadcast
from repro.core.renaming import ByzantineRenaming
from repro.core.binary_consensus import BinaryKingConsensus

__all__ = [
    "ApproximateAgreement",
    "BinaryKingConsensus",
    "ByzantineRenaming",
    "CommitteeConsensus",
    "CommitteeParallelConsensus",
    "ContinuousApproximateAgreement",
    "EarlyConsensus",
    "EchoVoting",
    "InteractiveConsistency",
    "ParallelConsensus",
    "ReliableBroadcast",
    "ReliableChannel",
    "ReplicatedKVStore",
    "RotorCoordinator",
    "RotorCore",
    "TerminatingReliableBroadcast",
    "TotalOrderNode",
    "ViewTracker",
    "at_least_third",
    "at_least_two_thirds",
    "committee_size",
    "less_than_third",
    "sample_committee",
    "trim_and_midpoint",
]
