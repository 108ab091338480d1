"""Named strategy registry for the CLI, sweeps, and benchmarks.

:func:`build_strategy` turns a strategy name into the
``(node_id, index) -> strategy`` factory that
:class:`repro.sim.runner.Scenario` expects.  Protocol-wrapping strategies
(crash, equivocator, splitter, usurper) need a ``protocol_factory`` that
builds a fresh honest protocol for the wrapped node.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.adversary.adaptive import AdaptiveStrategy
from repro.adversary.equivocator import EquivocatorStrategy
from repro.adversary.forger import EchoForgerStrategy, MembershipLiarStrategy
from repro.adversary.injector import ValueInjectorStrategy
from repro.adversary.noise import RandomNoiseStrategy
from repro.adversary.simple import (
    CrashStrategy,
    PresentOnlyStrategy,
    SilentStrategy,
)
from repro.adversary.splitter import (
    CoordinatorUsurperStrategy,
    FullSplitStrategy,
    QuorumSplitterStrategy,
)
from repro.errors import ConfigurationError
from repro.sim.node import Protocol
from repro.types import NodeId

ProtocolFactory = Callable[[], Protocol]
StrategyFactory = Callable[[NodeId, int], Any]

#: Strategy names that require a protocol_factory.
WRAPPING_STRATEGIES: frozenset[str] = frozenset(
    {"crash", "equivocator", "splitter", "usurper"}
)

#: All registered strategy names.
STRATEGY_BUILDERS: tuple[str, ...] = (
    "silent",
    "present-only",
    "crash",
    "equivocator",
    "echo-forger",
    "membership-liar",
    "value-injector",
    "noise",
    "splitter",
    "full-split",
    "usurper",
    "adaptive",
)


def build_strategy(
    name: str,
    protocol_factory: ProtocolFactory | None = None,
    **kwargs: Any,
) -> StrategyFactory:
    """Return a Scenario-compatible factory for the named strategy."""
    if name in WRAPPING_STRATEGIES and protocol_factory is None:
        raise ConfigurationError(
            f"strategy {name!r} wraps an honest protocol; pass "
            "protocol_factory"
        )

    def factory(node_id: NodeId, index: int) -> Any:
        if name == "silent":
            return SilentStrategy()
        if name == "present-only":
            return PresentOnlyStrategy(**kwargs)
        if name == "crash":
            crash_round = kwargs.get("crash_round", 3 + index)
            return CrashStrategy(protocol_factory(), crash_round)
        if name == "equivocator":
            return EquivocatorStrategy(protocol_factory(), **kwargs)
        if name == "echo-forger":
            return EchoForgerStrategy(**kwargs)
        if name == "membership-liar":
            return MembershipLiarStrategy(**kwargs)
        if name == "value-injector":
            return ValueInjectorStrategy(**kwargs)
        if name == "noise":
            return RandomNoiseStrategy(**kwargs)
        if name == "splitter":
            return QuorumSplitterStrategy(protocol_factory(), **kwargs)
        if name == "full-split":
            return FullSplitStrategy()
        if name == "usurper":
            return CoordinatorUsurperStrategy(protocol_factory(), **kwargs)
        if name == "adaptive":
            return AdaptiveStrategy(**kwargs)
        raise ConfigurationError(
            f"unknown strategy {name!r}; known: {', '.join(STRATEGY_BUILDERS)}"
        )

    return factory
