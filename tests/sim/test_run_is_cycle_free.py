"""A run's object graph is acyclic (DESIGN.md §4).

Everything a run allocates — protocols, rotor and voting state, the
engine's per-node bookkeeping, inboxes, the event plane, the trace — is
reclaimed by reference counting alone.  That invariant is what licenses
pausing CPython's cyclic collector for the lifetime of a run
(:func:`repro.sim.runner.collector_paused`), so it is pinned here over
the whole registry: a spec is evaluated with the collector off, and a
full collection afterwards must find nothing to free.

A new ``self.parent = self``-style back reference in a protocol, a
closure over its own owner in the engine, or an event that keeps its
publisher alive shows up as a non-zero count below, naming the spec.
"""

import gc

import pytest

from repro.adversary import STRATEGY_BUILDERS
from repro.analysis.campaign import evaluate_spec
from repro.scenario import (
    CHURN_KINDS,
    PROTOCOLS,
    SAMPLED_PROTOCOLS,
    ChurnSpec,
    RunSpec,
)
from repro.sim.node import Protocol
from repro.sim.runner import Scenario, run_scenario

#: Round budgets: the non-terminating abstractions run a fixed number of
#: rounds; everything else stops when every correct node has decided.
_BUDGET = {"total-order": 30, "reliable-broadcast": 12}


def _spec(protocol: str, **overrides) -> RunSpec:
    return RunSpec(
        protocol=protocol,
        n=overrides.pop("n", 10),
        seed=5,
        max_rounds=_BUDGET.get(protocol, 200),
        **overrides,
    )


def _registry_specs():
    for protocol in PROTOCOLS:
        yield f"{protocol}/no-adversary", _spec(protocol)
        for adversary in STRATEGY_BUILDERS:
            yield f"{protocol}/{adversary}", _spec(
                protocol, f=3, adversary=adversary, rushing=True
            )
    for protocol in SAMPLED_PROTOCOLS:
        yield f"{protocol}/sampled", _spec(protocol, n=40, variant="sampled")
    for kind in CHURN_KINDS:
        yield f"total-order/churn-{kind}", _spec(
            "total-order", n=9, f=2, churn=ChurnSpec(kind)
        )


def garbage_after(run) -> int:
    """Unreachable objects *run* leaves behind with the collector off."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


_SPECS = dict(_registry_specs())


@pytest.mark.parametrize("name", _SPECS)
def test_registry_run_leaves_no_cyclic_garbage(name):
    # A liveness failure (an adversary stalling the round budget) is a
    # verdict, not an error: that path must be cycle-free as well.
    assert garbage_after(lambda: evaluate_spec(_SPECS[name])) == 0


class _Knot(Protocol):
    """A user protocol that ties a reference cycle every round."""

    def on_round(self, api, inbox):
        knot = []
        knot.append(knot)
        if api.round == 6:
            self.decide(api, api.round)


def test_a_cycle_creating_protocol_still_runs_and_is_collected_after():
    """The pause is safe for protocols that break the invariant.

    Their garbage is not reclaimed *during* the run — memory is bounded
    by one run's allocations, not by the collector's thresholds — and
    the first collection after the pause ends frees all of it.
    """
    results = []
    garbage = garbage_after(
        lambda: results.append(
            run_scenario(
                Scenario(correct=4, protocol_factory=lambda nid, i: _Knot())
            ).rounds
        )
    )
    assert results == [6]
    assert garbage == 4 * 6
