"""Materialize a :class:`RunSpec` on the sync simulator.

``materialize`` is the one funnel through which every harness — CLI,
benchmarks, oracle, replay scenarios, campaigns — turns a
declarative spec into a runnable :class:`~repro.sim.runner.Scenario`;
``run_spec`` runs it.  Keeping this the only construction path is what
makes a campaign's violating spec a complete, replayable artifact
(enforced by lint rule R502 for the CLI and benchmarks).
"""

from __future__ import annotations

from repro.adversary import STRATEGY_BUILDERS, build_strategy
from repro.errors import ConfigurationError
from repro.scenario.churn import build_membership, churn_params
from repro.scenario.registry import (
    InputFn,
    ProtocolEntry,
    get_protocol,
    resolve_inputs,
)
from repro.scenario.spec import RunSpec
from repro.sim.runner import (
    Scenario,
    ScenarioResult,
    draw_population,
    run_scenario,
)
from repro.types import NodeId

__all__ = ["materialize", "predict_population", "resolve", "run_spec"]


def predict_population(
    spec: RunSpec,
) -> tuple[list[NodeId], list[NodeId]]:
    """The (correct_ids, byzantine_ids) the runner will draw for *spec*.

    The runner's own :func:`~repro.sim.runner.draw_population`, so churn
    generators (and tests) can name concrete ids before the run exists.
    """
    return draw_population(spec.seed, spec.n - spec.f, spec.f, spec.id_space)


def _wrapped_factory(spec: RunSpec, entry: ProtocolEntry, input_fn):
    """Zero-arg honest-protocol factory for wrapping strategies.

    Built from a *fresh* entry.build closure so stateful builders (the
    trb/rb sender capture) are independent of the honest population's;
    ``adversary_params["wrapped_index"]`` picks the index the wrapped
    protocol sees (e.g. -1 for an out-of-band equivocator opinion).
    """
    wrapped_index = int(spec.adversary_params.get("wrapped_index", 0))
    inner = entry.build(spec, input_fn)
    return lambda: inner(0, wrapped_index)


def resolve(spec: RunSpec) -> tuple[ProtocolEntry, InputFn]:
    """*spec*'s protocol entry and input function, building nothing;
    :class:`~repro.errors.ConfigurationError` when the spec can never
    run whatever its seed (``validate()``, an unknown protocol,
    variant, inputs or, with ``f > 0``, adversary name, a
    ``protocol_params`` key or value the protocol cannot read, or a
    churn spec :func:`~repro.scenario.churn.churn_params` refuses)."""
    spec.validate()
    entry = get_protocol(spec.protocol)
    if spec.variant not in entry.variants:
        raise ConfigurationError(
            f"protocol {spec.protocol!r} has no {spec.variant!r} "
            f"variant; choose from {entry.variants}"
        )
    entry.check_params(spec.protocol_params)
    input_fn = resolve_inputs(spec.inputs or entry.default_inputs)
    if spec.f and spec.adversary not in STRATEGY_BUILDERS:
        raise ConfigurationError(
            f"unknown adversary {spec.adversary!r}; known: "
            f"{', '.join(STRATEGY_BUILDERS)}"
        )
    if spec.churn is not None:
        churn_params(spec, entry)
    return entry, input_fn


def materialize(spec: RunSpec) -> Scenario:
    """Resolve every name in *spec* and build the runnable Scenario."""
    entry, input_fn = resolve(spec)
    protocol_factory = entry.build(spec, input_fn)

    strategy_factory = None
    if spec.f:
        strategy_params = {
            key: value
            for key, value in spec.adversary_params.items()
            if key != "wrapped_index"
        }
        strategy_factory = build_strategy(
            spec.adversary,
            protocol_factory=_wrapped_factory(spec, entry, input_fn),
            **strategy_params,
        )

    membership = None
    if spec.churn is not None:
        correct_ids, byz_ids = predict_population(spec)
        membership = build_membership(spec, entry, correct_ids, byz_ids)

    until_all_halted = (
        entry.until_all_halted
        if spec.until_all_halted is None
        else spec.until_all_halted
    )
    return Scenario(
        correct=spec.n - spec.f,
        byzantine=spec.f,
        protocol_factory=protocol_factory,
        strategy_factory=strategy_factory,
        seed=spec.seed,
        rushing=spec.rushing,
        max_rounds=spec.max_rounds,
        until_all_halted=until_all_halted,
        membership=membership,
        id_space=spec.id_space,
        enforce_resiliency=spec.enforce_resiliency,
        spec=spec.to_json_dict(),
    )


def run_spec(spec: RunSpec, *, bus=None) -> ScenarioResult:
    """Materialize and run *spec* (see :func:`repro.sim.runner.run_scenario`)."""
    return run_scenario(materialize(spec), bus=bus)
