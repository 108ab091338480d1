"""Classical known-``n, f`` baselines.

The paper generalizes three classics — Srikanth–Toueg reliable broadcast,
the Berman–Garay–Perry *phase king*, and Dolev et al.'s approximate
agreement — plus the trivial consecutive-id rotating coordinator.  These
reference implementations receive ``n`` and ``f`` explicitly, so the
benchmarks can measure what the unknown-``n, f`` versions pay (the paper's
§12 claim: round and message complexity "do not change much") and what
the classics silently assume (consecutive ids, a global ``f``).  Each is
the ``classic`` variant of its protocol in :mod:`repro.scenario.registry`
(built from the spec's ``n``, ``f`` and drawn member list) and emits the
events that protocol's verdicts fold.
"""

from repro.baselines.srikanth_toueg import SrikanthTouegBroadcast
from repro.baselines.phase_king import PhaseKingConsensus
from repro.baselines.dolev_approx import DolevApproxAgreement
from repro.baselines.rotating_coordinator import KnownFRotatingCoordinator

__all__ = [
    "DolevApproxAgreement",
    "KnownFRotatingCoordinator",
    "PhaseKingConsensus",
    "SrikanthTouegBroadcast",
]
