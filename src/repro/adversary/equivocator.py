"""Equivocation: different stories to different halves of the network.

Runs the honest protocol to stay quorum-relevant, but whenever it would
broadcast a message with a mutable payload, it sends one payload to the
lower-id half and a corrupted payload to the upper-id half.  This is exactly
the behaviour reliable broadcast exists to neutralise: the abstraction must
force a single story.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.adversary.base import ProtocolWrappingStrategy
from repro.sim.message import Send
from repro.sim.network import AdversaryView
from repro.sim.node import Protocol


def _default_mutate(payload: Hashable) -> Hashable:
    """Flip binary values, negate numbers, mangle everything else."""
    if payload is None:
        return None
    if payload is True or payload is False:
        return not payload
    if isinstance(payload, bool):  # pragma: no cover - covered above
        return not payload
    if isinstance(payload, int):
        return 1 - payload if payload in (0, 1) else -payload
    if isinstance(payload, float):
        return -payload
    if isinstance(payload, str):
        return payload + "'"
    if isinstance(payload, tuple):
        return tuple(_default_mutate(p) for p in payload)
    return payload


class EquivocatorStrategy(ProtocolWrappingStrategy):
    """Sends value ``x`` to half the nodes and ``mutate(x)`` to the rest.

    ``kinds`` restricts equivocation to specific message kinds (e.g. only
    ``input``/``prefer``); by default every payload-carrying broadcast is
    split.

    ``targets`` narrows the *victims*: only the targeted ids are split
    between the two stories (everyone else gets the clean payload).
    Aiming the split at a known committee (see
    :func:`repro.core.committee.sample_committee`) is the sharpest
    attack on the sampled variants — confusing the c deciders matters,
    confusing bystanders does not.
    """

    def __init__(
        self,
        protocol: Protocol,
        kinds: frozenset[str] | None = None,
        mutate: Callable[[Hashable], Hashable] = _default_mutate,
        targets: frozenset | None = None,
    ):
        super().__init__(protocol)
        self._kinds = kinds
        self._mutate = mutate
        self._targets = targets

    def _should_split(self, send: Send) -> bool:
        if send.payload is None:
            return False
        if self._kinds is not None and send.kind not in self._kinds:
            return False
        return True

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
            if not self._should_split(send):
                result.append(send)
                continue
            twisted = Send(
                send.kind, (self._mutate(send.payload),), send.instance
            )
            result.extend(self.explode_broadcast(send, lower))
            result.extend(self.explode_broadcast(twisted, upper))
            if bystanders:
                result.extend(self.explode_broadcast(send, bystanders))
        return result
