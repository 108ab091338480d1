"""One-call scenario harness.

A :class:`Scenario` describes a population (how many correct nodes, which
Byzantine strategies), builds a :class:`~repro.sim.network.SyncNetwork` with
sparse random ids, runs it, and returns a :class:`ScenarioResult` with the
outputs, metrics, and trace.  Tests, examples, and benchmarks all go through
this so that every experiment is a seed away from reproduction.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import Any, Callable, ParamSpec, TypeVar

from repro.errors import ConfigurationError
from repro.sim.membership import MembershipSchedule
from repro.sim.metrics import Metrics
from repro.sim.network import SyncNetwork
from repro.sim.node import Protocol
from repro.sim.rng import make_rng, sparse_ids
from repro.sim.trace import Trace
from repro.types import NodeId

_P = ParamSpec("_P")
_R = TypeVar("_R")

#: Builds a protocol given (node_id, index among correct nodes).
ProtocolFactory = Callable[[NodeId, int], Protocol]
#: Builds a Byzantine strategy given (node_id, index among Byzantine nodes).
StrategyFactory = Callable[[NodeId, int], Any]


@dataclass
class Scenario:
    """A declarative description of one run."""

    correct: int
    protocol_factory: ProtocolFactory
    byzantine: int = 0
    strategy_factory: StrategyFactory | None = None
    seed: int = 0
    rushing: bool = False
    max_rounds: int = 200
    until_all_halted: bool = True
    membership: MembershipSchedule | None = None
    id_space: int = 10**6
    #: When set, checks n > 3f at construction and refuses bad configs;
    #: resiliency experiments set this to False to venture past the bound.
    enforce_resiliency: bool = True
    #: The RunSpec document this scenario was materialized from (None
    #: when built by hand); the run publishes it on ``run-start``.
    spec: dict[str, Any] | None = None

    def validate(self) -> None:
        if self.correct <= 0:
            raise ConfigurationError("need at least one correct node")
        if self.byzantine < 0:
            raise ConfigurationError("byzantine count must be >= 0")
        if self.byzantine > 0 and self.strategy_factory is None:
            raise ConfigurationError(
                "byzantine > 0 requires a strategy_factory"
            )
        n = self.correct + self.byzantine
        if self.enforce_resiliency and not n > 3 * self.byzantine:
            raise ConfigurationError(
                f"n={n}, f={self.byzantine} violates n > 3f; pass "
                "enforce_resiliency=False to run anyway"
            )


@dataclass
class ScenarioResult:
    """Everything observable about one finished run."""

    network: SyncNetwork
    correct_ids: list[NodeId]
    byzantine_ids: list[NodeId]
    rounds: int
    outputs: dict[NodeId, Any]
    metrics: Metrics
    trace: Trace
    protocols: dict[NodeId, Protocol] = field(default_factory=dict)

    @property
    def distinct_outputs(self) -> set[Any]:
        return set(self.outputs.values())

    @property
    def agreed(self) -> bool:
        """True when every correct node decided and on a single value."""
        return (
            len(self.outputs) == len(self.correct_ids)
            and len(self.distinct_outputs) == 1
        )

    def output_of(self, node_id: NodeId) -> Any:
        return self.outputs[node_id]


def collector_paused(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """Decorator: run *fn* with CPython's cyclic collector paused.

    A run's object graph is acyclic — everything a run allocates is
    reclaimed by reference counting (DESIGN.md §4; pinned registry-wide
    by ``tests/sim/test_run_is_cycle_free.py``) — so collecting during a
    run only re-traverses a growing heap to free nothing.  The wrapper
    restores the collector state it found, which makes it reentrant: a
    nested pause, or a caller that disabled the collector itself, is
    left alone.

    It wraps whole functions on purpose.  The first collection after
    resumption re-traverses whatever is still alive, so the owner of a
    run's *lifetime* must drop the :class:`ScenarioResult` before the
    pause ends — and a decorated function's locals are released when it
    returns, before the wrapper's ``finally``.
    """

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def draw_population(
    seed: int, correct: int, byzantine: int, id_space: int
) -> tuple[list[NodeId], list[NodeId]]:
    """The sorted (correct_ids, byzantine_ids) a run with *seed* gets.

    Sparse ids, then a seeded shuffle that interleaves the two groups
    deterministically but not by block, so neither systematically owns
    the smallest identifiers (the rotor picks coordinators in id order
    — block assignment would bias it).
    """
    rng = make_rng(seed)
    shuffled = sparse_ids(correct + byzantine, rng, id_space)
    rng.shuffle(shuffled)
    return sorted(shuffled[:correct]), sorted(shuffled[correct:])


def populate(
    scenario: Scenario, network
) -> tuple[list[NodeId], list[NodeId], dict[NodeId, Protocol]]:
    """Draw *scenario*'s population and register it on *network* (any
    ``add_correct``/``add_byzantine`` owner); return the sorted correct
    and Byzantine ids and the correct nodes' protocols."""
    correct_ids, byz_ids = draw_population(
        scenario.seed, scenario.correct, scenario.byzantine, scenario.id_space
    )
    protocols: dict[NodeId, Protocol] = {}
    for index, node_id in enumerate(correct_ids):
        protocol = scenario.protocol_factory(node_id, index)
        protocols[node_id] = protocol
        network.add_correct(node_id, protocol)
    for index, node_id in enumerate(byz_ids):
        network.add_byzantine(
            node_id, scenario.strategy_factory(node_id, index)
        )
    return correct_ids, byz_ids, protocols


@collector_paused
def run_scenario(scenario: Scenario, *, bus=None) -> ScenarioResult:
    """Build the network described by *scenario*, run it, return the result.

    *bus* (an :class:`~repro.obs.bus.EventBus`) lets callers observe the
    run — attach verdicts or a JSONL sink before calling; ``None`` gives
    the network its own private bus as usual.  Population and round loop
    run with the cyclic collector paused; a caller that also owns the
    result's lifetime extends the pause over it (``evaluate_spec``,
    ``repro run``).
    """
    scenario.validate()
    network = SyncNetwork(
        seed=scenario.seed,
        rushing=scenario.rushing,
        membership=scenario.membership,
        bus=bus,
        spec=scenario.spec,
    )
    correct_ids, byz_ids, protocols = populate(scenario, network)
    rounds = network.run(
        scenario.max_rounds, until_all_halted=scenario.until_all_halted
    )
    return ScenarioResult(
        network=network,
        correct_ids=correct_ids,
        byzantine_ids=byz_ids,
        rounds=rounds,
        outputs=network.outputs(),
        metrics=network.metrics,
        trace=network.trace,
        protocols=protocols,
    )
