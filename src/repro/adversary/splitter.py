"""Targeted attacks on the consensus quorums and the rotor-coordinator.

:class:`QuorumSplitterStrategy` plays the honest consensus protocol but
splits every opinion-carrying message between two values, trying to push
two correct nodes into conflicting ``2n_v/3`` quorums — the situation
Lemma ``quorum`` proves impossible for ``n > 3f``.
:class:`FullSplitStrategy` skips the honest protocol and sends each half
of the correct nodes its own value on every opinion kind, every round.

:class:`CoordinatorUsurperStrategy` plays the rotor honestly (so it gets
added to every candidate set and is eventually selected coordinator) and
then, in its coordinator round, equivocates its opinion.  Theorem ``rc``
says a *correct* common coordinator round still happens before termination.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.adversary.base import ByzantineStrategy, ProtocolWrappingStrategy
from repro.sim.message import Send
from repro.sim.network import AdversaryView
from repro.sim.node import Protocol

#: Consensus message kinds that carry opinions.
OPINION_KINDS: frozenset[str] = frozenset(
    {"input", "prefer", "strongprefer", "opinion"}
)


class QuorumSplitterStrategy(ProtocolWrappingStrategy):
    """Split every opinion message between ``value_a`` and ``value_b``.

    ``targets`` narrows the split to specific ids (a sampled committee,
    say); non-targets uniformly receive ``value_a`` so the attacker
    still looks single-voiced to bystanders.
    """

    def __init__(
        self,
        protocol: Protocol,
        value_a: Hashable = 0,
        value_b: Hashable = 1,
        kinds: frozenset[str] = OPINION_KINDS,
        targets: frozenset | None = None,
    ):
        super().__init__(protocol)
        self._value_a = value_a
        self._value_b = value_b
        self._kinds = kinds
        self._targets = targets

    def transform(
        self, sends: list[Send], view: AdversaryView
    ) -> Iterable[Send]:
        everyone = sorted(view.all_nodes)
        if self._targets is None:
            victims, bystanders = everyone, []
        else:
            victims = sorted(self._targets & view.all_nodes)
            bystanders = [nid for nid in everyone if nid not in self._targets]
        half = len(victims) // 2
        lower, upper = victims[:half], victims[half:]
        result: list[Send] = []
        for send in sends:
            if send.kind not in self._kinds:
                result.append(send)
                continue
            side_a = Send(send.kind, (self._value_a,), send.instance)
            side_b = Send(send.kind, (self._value_b,), send.instance)
            result.extend(self.explode_broadcast(side_a, lower))
            result.extend(self.explode_broadcast(side_b, upper))
            if bystanders:
                result.extend(self.explode_broadcast(side_a, bystanders))
        return result


class FullSplitStrategy(ByzantineStrategy):
    """Feed each half of the correct nodes its own complete quorums.

    Announces itself in round 1, then sends value 0 to the lower half
    and value 1 to the upper half on every consensus opinion kind,
    every round — the attack that breaks agreement once ``n <= 3f``.
    """

    def on_round(self, view: AdversaryView) -> Iterable[Send]:
        if view.round == 1:
            return [self.broadcast("init")]
        ordered = sorted(view.correct_nodes)
        half = len(ordered) // 2
        sends = []
        for kind in ("input", "prefer", "strongprefer"):
            sends.extend(self.to(d, kind, 0) for d in ordered[:half])
            sends.extend(self.to(d, kind, 1) for d in ordered[half:])
        return sends


class CoordinatorUsurperStrategy(ProtocolWrappingStrategy):
    """Honest rotor participant that equivocates its coordinator opinion.

    Every ``opinion`` message it would send is split: opinion ``value_a``
    to the lower half, ``value_b`` to the upper half.  Everything else is
    passed through so the node remains a plausible candidate coordinator.
    """

    def __init__(
        self,
        protocol: Protocol,
        value_a: Hashable = 0,
        value_b: Hashable = 1,
    ):
        super().__init__(protocol)
        self._value_a = value_a
        self._value_b = value_b

    def transform(
        self, sends: list[Send], view: AdversaryView
    ) -> Iterable[Send]:
        ordered = sorted(view.all_nodes)
        half = len(ordered) // 2
        lower, upper = ordered[:half], ordered[half:]
        result: list[Send] = []
        for send in sends:
            if send.kind != "opinion":
                result.append(send)
                continue
            side_a = Send(send.kind, (self._value_a,), send.instance)
            side_b = Send(send.kind, (self._value_b,), send.instance)
            result.extend(self.explode_broadcast(side_a, lower))
            result.extend(self.explode_broadcast(side_b, upper))
        return result
