"""One scenario layer, every runtime (DESIGN.md §4).

A run is *described* by a frozen, JSON-portable
:class:`~repro.scenario.spec.RunSpec` and *materialized* by
:func:`~repro.scenario.build.materialize`.  The CLI, the benchmark
harness, the oracle, the replay scenarios, and the Monte Carlo campaign
runner all construct runs through this package —
never by assembling :class:`~repro.sim.network.SyncNetwork` populations
by hand (lint rule R502 fences the CLI and benchmarks).

Churn is declarative too: a :class:`~repro.scenario.spec.ChurnSpec`
names a seeded generator (:mod:`repro.scenario.churn`) that expands
into the engine's :class:`~repro.sim.membership.MembershipSchedule`.
"""

from repro.scenario.build import (
    materialize,
    predict_population,
    resolve,
    run_spec,
)
from repro.scenario.churn import CHURN_KINDS, build_membership, validate_schedule
from repro.scenario.registry import (
    PROTOCOLS,
    SAMPLED_PROTOCOLS,
    ProtocolEntry,
    alternating_inputs,
    get_protocol,
    index_inputs,
    parallel_inputs,
    resolve_inputs,
    supermajority_inputs,
)
from repro.scenario.spec import ChurnSpec, RunSpec

# Whoever owns a run's lifetime (``evaluate_spec``, ``repro run``) holds
# this around ``run_spec`` *and* the use of its result (DESIGN.md §4).
from repro.sim.runner import collector_paused

__all__ = [
    "CHURN_KINDS",
    "ChurnSpec",
    "PROTOCOLS",
    "ProtocolEntry",
    "RunSpec",
    "SAMPLED_PROTOCOLS",
    "alternating_inputs",
    "build_membership",
    "collector_paused",
    "get_protocol",
    "index_inputs",
    "materialize",
    "parallel_inputs",
    "predict_population",
    "resolve",
    "resolve_inputs",
    "run_spec",
    "supermajority_inputs",
    "validate_schedule",
]
