"""Byzantine adversary strategies.

The paper's proofs quantify over *arbitrary* Byzantine behaviour; tests and
benchmarks cannot, so this package supplies the concrete attack families the
proofs have to survive:

* under-participation (:class:`SilentStrategy`,
  :class:`PresentOnlyStrategy`) — Byzantine nodes reveal themselves to
  nobody or to everyone-then-vanish, skewing every ``n_v``;
* crash-like behaviour (:class:`CrashStrategy`) — correct until a chosen
  round, then silent;
* equivocation (:class:`EquivocatorStrategy`) — runs the real protocol but
  tells different halves of the network different values;
* fabrication (:class:`EchoForgerStrategy`,
  :class:`MembershipLiarStrategy`) — echoes for messages never sent and
  phantom participants;
* targeted attacks (:class:`ValueInjectorStrategy` against approximate
  agreement, :class:`QuorumSplitterStrategy` and
  :class:`FullSplitStrategy` against consensus quorums,
  :class:`CoordinatorUsurperStrategy` against the rotor);
* chaos (:class:`RandomNoiseStrategy`) — randomized well-formed garbage.

All strategies work against any protocol built on :mod:`repro.sim`; the
protocol-aware ones take the message vocabulary as configuration.
"""

from repro.adversary.adaptive import AdaptiveStrategy
from repro.adversary.base import (
    ByzantineStrategy,
    ProtocolWrappingStrategy,
)
from repro.adversary.simple import (
    CrashStrategy,
    PresentOnlyStrategy,
    SilentStrategy,
)
from repro.adversary.equivocator import EquivocatorStrategy
from repro.adversary.forger import EchoForgerStrategy, MembershipLiarStrategy
from repro.adversary.injector import ValueInjectorStrategy
from repro.adversary.noise import RandomNoiseStrategy
from repro.adversary.splitter import (
    CoordinatorUsurperStrategy,
    FullSplitStrategy,
    QuorumSplitterStrategy,
)
from repro.adversary.registry import STRATEGY_BUILDERS, build_strategy

__all__ = [
    "AdaptiveStrategy",
    "ByzantineStrategy",
    "CoordinatorUsurperStrategy",
    "CrashStrategy",
    "EchoForgerStrategy",
    "EquivocatorStrategy",
    "FullSplitStrategy",
    "MembershipLiarStrategy",
    "PresentOnlyStrategy",
    "ProtocolWrappingStrategy",
    "QuorumSplitterStrategy",
    "RandomNoiseStrategy",
    "STRATEGY_BUILDERS",
    "SilentStrategy",
    "ValueInjectorStrategy",
    "build_strategy",
]
