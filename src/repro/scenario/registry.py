"""Name resolution: protocols, variants, and input assignments.

A :class:`RunSpec` names its protocol and input assignment; this module
maps those names onto the concrete factories the simulator needs.  Each
:class:`ProtocolEntry` knows how to build the per-node protocol from a
spec, which ``protocol_params`` keys that build reads, which run-loop
stop condition the protocol wants, which variants exist, and — for
dynamic protocols — how to build a mid-run joiner (churn generators
refuse protocols without a ``joiner``).

The ``classic`` variant runs the known-``n, f`` algorithm the paper
generalizes (:mod:`repro.baselines`, imported only when built), given
the spec's ``n``, ``f`` and the run's drawn member list.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from repro.core import (
    ApproximateAgreement,
    BinaryKingConsensus,
    ByzantineRenaming,
    CommitteeConsensus,
    CommitteeParallelConsensus,
    EarlyConsensus,
    InteractiveConsistency,
    ParallelConsensus,
    ReliableBroadcast,
    RotorCoordinator,
    TerminatingReliableBroadcast,
)
from repro.core.total_order import TotalOrderNode, events_from_dict
from repro.errors import ConfigurationError
from repro.sim.runner import ProtocolFactory, draw_population
from repro.types import NodeId, Round

#: (node_id, index among correct nodes) -> that node's input value.
InputFn = Callable[[NodeId, int], Hashable]

__all__ = [
    "InputFn",
    "PROTOCOLS",
    "ProtocolEntry",
    "alternating_inputs",
    "get_protocol",
    "index_inputs",
    "parallel_inputs",
    "resolve_inputs",
    "supermajority_inputs",
]


# ---------------------------------------------------------------------------
# Input assignments
# ---------------------------------------------------------------------------
def alternating_inputs(nid: NodeId, index: int) -> Hashable:
    """A worst-case near-even binary split.

    Useful for *internal* agreement checks, but not for oracle
    comparison: with no supermajority, both 0 and 1 are valid outcomes
    and the full-broadcast and committee runs — different executions
    over different memberships — may legitimately resolve differently.
    """
    return index % 2


def supermajority_inputs(nid: NodeId, index: int) -> Hashable:
    """A 7:1 biased binary split.

    When ≥ 2/3 of a (sub)population holds the same input, Algorithm 3
    terminates on it in its first phase — validity pins the outcome, so
    an oracle and a sampled run *must* produce the same value and
    comparing them is meaningful.  The 7:1 margin keeps a sampled
    committee's own majority fraction above 2/3 with overwhelming
    probability (≈ 6σ at c ≈ 100), and the run still exercises both
    values on the wire.
    """
    return 0 if index % 8 else 1


def index_inputs(nid: NodeId, index: int) -> Hashable:
    """Every node inputs its own index — all-distinct values."""
    return index


_INPUT_ASSIGNMENTS: dict[str, InputFn] = {
    "alternating": alternating_inputs,
    "supermajority": supermajority_inputs,
    "index": index_inputs,
}


def resolve_inputs(name: str) -> InputFn:
    """Map an input-assignment name to its ``(nid, index) -> value`` fn.

    ``constant:<json>`` assigns the parsed JSON value to every node,
    e.g. ``constant:0`` or ``constant:"spam"``.
    """
    if name.startswith("constant:"):
        try:
            value = json.loads(name.split(":", 1)[1])
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"bad constant input assignment {name!r}: {exc}"
            ) from exc
        return lambda nid, index: value
    try:
        return _INPUT_ASSIGNMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown input assignment {name!r}; known: "
            f"{sorted(_INPUT_ASSIGNMENTS)} or 'constant:<json>'"
        ) from None


# ---------------------------------------------------------------------------
# Protocol entries
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolEntry:
    """Everything the builder needs to know about one protocol name."""

    name: str
    #: (spec, input_fn) -> the Scenario protocol factory.
    build: Callable[[Any, InputFn], ProtocolFactory]
    default_inputs: str = "alternating"
    until_all_halted: bool = True
    variants: tuple[str, ...] = ("full",)
    #: The ``protocol_params`` keys ``build`` (and ``joiner``) read;
    #: :func:`repro.scenario.resolve` refuses any other.
    params: tuple[str, ...] = ()
    #: (spec, node_id, join_round) -> zero-arg factory for a mid-run
    #: joiner; None means the protocol has no join handshake and churn
    #: schedules cannot target it.
    joiner: Callable[[Any, NodeId, Round], Callable[[], Any]] | None = None

    def check_params(self, params: Mapping[str, Any]) -> None:
        """:class:`ConfigurationError` for a key the builder does not
        read, or a value of a key it reads that it cannot use."""
        unread = ", ".join(map(repr, sorted(set(params) - set(self.params))))
        if unread:
            raise ConfigurationError(
                f"protocol {self.name!r} reads no protocol_params key "
                f"{unread}; it reads {list(self.params)}"
            )
        awareness = params.get("awareness", "full")
        if awareness not in ("full", "partial"):
            raise ConfigurationError(f"unknown awareness {awareness!r}")
        for key in ("iterations", "instances"):
            value = params.get(key, 1)
            if type(value) is not int or value < 1:
                raise ConfigurationError(
                    f"{key} must be a positive integer, got {value!r}"
                )
        for key in _INTEGER_PARAMS:
            if type(params.get(key, 0)) is not int:
                raise ConfigurationError(
                    f"{key} must be an integer, got {params[key]!r}"
                )


def _with_members(classic, spec, input_fn: InputFn) -> ProtocolFactory:
    """``classic(input, members, f)`` for every node: a known-n,f
    algorithm given every id the run draws as its member list."""
    correct, byzantine = draw_population(
        spec.seed, spec.n - spec.f, spec.f, spec.id_space
    )
    members = correct + byzantine
    return lambda nid, i: classic(input_fn(nid, i), members, spec.f)


def _consensus_build(spec, input_fn: InputFn) -> ProtocolFactory:
    if spec.variant == "sampled":
        return lambda nid, i: CommitteeConsensus(
            input_fn(nid, i), sampling_seed=spec.seed
        )
    return lambda nid, i: EarlyConsensus(input_fn(nid, i))


def _binary_consensus_build(spec, input_fn: InputFn) -> ProtocolFactory:
    if spec.variant == "classic":
        from repro.baselines import PhaseKingConsensus

        return _with_members(PhaseKingConsensus, spec, input_fn)
    return lambda nid, i: BinaryKingConsensus(input_fn(nid, i))


def _rotor_build(spec, input_fn: InputFn) -> ProtocolFactory:
    if spec.variant == "classic":
        from repro.baselines import KnownFRotatingCoordinator

        return _with_members(KnownFRotatingCoordinator, spec, input_fn)
    return lambda nid, i: RotorCoordinator(opinion=input_fn(nid, i))


def _approx_build(spec, input_fn: InputFn) -> ProtocolFactory:
    iterations = spec.protocol_params.get("iterations", 1)
    if spec.variant == "classic":
        from repro.baselines import DolevApproxAgreement

        return lambda nid, i: DolevApproxAgreement(
            float(input_fn(nid, i)), spec.f, iterations
        )
    return lambda nid, i: ApproximateAgreement(
        float(input_fn(nid, i)), iterations
    )


def _renaming_build(spec, input_fn: InputFn) -> ProtocolFactory:
    return lambda nid, i: ByzantineRenaming()


def parallel_inputs(
    spec, input_fn: InputFn, nid: NodeId, index: int
) -> dict[str, Hashable]:
    """Node *nid*'s (at *index*) ``{instance id: value}`` inputs in a
    ``parallel`` run: its assigned value in the one instance ``"k"``,
    or in each of ``protocol_params.instances`` m instances ``"id0"`` ..
    ``"id<m-1>"`` (``awareness: "partial"``: those with k + index even).
    """
    params, value = spec.protocol_params, input_fn(nid, index)
    if "instances" not in params:
        return {"k": value}
    partial = params.get("awareness") == "partial"
    return {
        f"id{k}": value
        for k in range(params["instances"])
        if not partial or (index + k) % 2 == 0
    }


def _parallel_build(spec, input_fn: InputFn) -> ProtocolFactory:
    def inputs(nid: NodeId, i: int) -> dict[str, Hashable]:
        return parallel_inputs(spec, input_fn, nid, i)

    if spec.variant == "sampled":
        return lambda nid, i: CommitteeParallelConsensus(
            inputs(nid, i), sampling_seed=spec.seed
        )
    return lambda nid, i: ParallelConsensus(inputs(nid, i))


def _interactive_consistency_build(spec, input_fn: InputFn) -> ProtocolFactory:
    return lambda nid, i: InteractiveConsistency(input_fn(nid, i))


def _sender_build(spec, make: Callable[..., Any]) -> ProtocolFactory:
    """``make(sender, message=...)`` for every node: index 0's node is
    the designated sender of ``protocol_params.payload`` (the factory is
    called in index order, so the first call fixes the sender id)."""
    payload = spec.protocol_params.get("payload", "payload")
    sender: list[NodeId] = []

    def build(nid: NodeId, i: int):
        if i == 0:
            sender.append(nid)
        return make(sender[0], message=payload if i == 0 else None)

    return build


def _trb_build(spec, input_fn: InputFn) -> ProtocolFactory:
    return _sender_build(spec, TerminatingReliableBroadcast)


def _reliable_broadcast_build(spec, input_fn: InputFn) -> ProtocolFactory:
    if spec.variant == "classic":
        from repro.baselines import SrikanthTouegBroadcast

        return _sender_build(
            spec,
            functools.partial(SrikanthTouegBroadcast, n=spec.n, f=spec.f),
        )
    return _sender_build(spec, ReliableBroadcast)


def _event_plan(spec, label: str) -> dict[int, Hashable]:
    """Total order's event cadence: event ``<label>@r`` in round r."""
    params = spec.protocol_params
    first = params.get("event_first", 2)
    last = params.get("event_last", 60)
    every = params.get("event_every", 5)
    if every <= 0:
        return {}
    return {r: f"{label}@{r}" for r in range(first, last, every)}


def _total_order_build(spec, input_fn: InputFn) -> ProtocolFactory:
    params = spec.protocol_params
    leavers = params.get("leavers", 0)
    leave_base = params.get("leave_base", 30)
    leave_step = params.get("leave_step", 5)

    def build(nid: NodeId, i: int):
        node = TotalOrderNode(
            event_source=events_from_dict(_event_plan(spec, f"e{i}"))
        )
        if i < leavers:
            node.leave_at = leave_base + leave_step * i
        return node

    return build


def _total_order_joiner(spec, node_id: NodeId, round_no: Round):
    plan: dict[int, Hashable] = {}
    if spec.protocol_params.get("joiner_events"):
        plan = _event_plan(spec, f"j{node_id}")
    return lambda: TotalOrderNode(
        event_source=events_from_dict(plan), seed=False
    )


_CLASSIC = ("full", "classic")
_SAMPLED = ("full", "sampled")
#: Total order's cadence and leave-plan keys: integers, checked by
#: :meth:`ProtocolEntry.check_params` before the builder reads them.
_INTEGER_PARAMS = (
    "event_first", "event_last", "event_every", "leavers", "leave_base",
    "leave_step",
)
_TOTAL_ORDER_PARAMS = (*_INTEGER_PARAMS, "joiner_events")

_ENTRIES: dict[str, ProtocolEntry] = {
    entry.name: entry
    for entry in (
        ProtocolEntry("consensus", _consensus_build, variants=_SAMPLED),
        ProtocolEntry(
            "binary-consensus", _binary_consensus_build, variants=_CLASSIC
        ),
        ProtocolEntry(
            "rotor", _rotor_build, default_inputs="index", variants=_CLASSIC
        ),
        ProtocolEntry(
            "approx",
            _approx_build,
            default_inputs="index",
            variants=_CLASSIC,
            params=("iterations",),
        ),
        ProtocolEntry("renaming", _renaming_build),
        ProtocolEntry(
            "parallel",
            _parallel_build,
            variants=_SAMPLED,
            params=("instances", "awareness"),
        ),
        ProtocolEntry(
            "interactive-consistency",
            _interactive_consistency_build,
            default_inputs="index",
        ),
        ProtocolEntry("trb", _trb_build, params=("payload",)),
        ProtocolEntry(
            "reliable-broadcast",
            _reliable_broadcast_build,
            until_all_halted=False,
            variants=_CLASSIC,
            params=("payload",),
        ),
        ProtocolEntry(
            "total-order",
            _total_order_build,
            until_all_halted=False,
            joiner=_total_order_joiner,
            params=_TOTAL_ORDER_PARAMS,
        ),
    )
}

#: Every registered protocol name, in registration order.
PROTOCOLS: tuple[str, ...] = tuple(_ENTRIES)

#: Protocols with a committee-sampled variant.
SAMPLED_PROTOCOLS: tuple[str, ...] = tuple(
    name for name, entry in _ENTRIES.items() if "sampled" in entry.variants
)


def get_protocol(name: str) -> ProtocolEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; known: {', '.join(PROTOCOLS)}"
        ) from None
