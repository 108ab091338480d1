"""Dolev et al. approximate agreement (known ``n, f``).

The classical trimmed-mean round: broadcast the estimate, discard exactly
the ``f`` smallest and ``f`` largest of the ``n`` received values, and
average the survivors' extremes.  Identical convergence behaviour to the
paper's Algorithm 4 — the ``classic`` variant of ``approx`` emits the
same per-iteration events, so benchmark E9 judges both on Theorem 8.3's
halving, §12's "convergence rate remains unchanged" — but it needs the
true ``f`` and assumes all ``n`` values arrive (a silent faulty node
must be padded with a default, another luxury of known membership).
"""

from __future__ import annotations

from repro.sim.inbox import Inbox
from repro.sim.node import NodeApi, Protocol

KIND_VALUE = "value"


def trim_f_and_midpoint(values: list[float], f: int) -> float:
    """Discard the ``f`` smallest and largest values, return the midpoint
    of the survivors' extremes."""
    if len(values) <= 2 * f:
        raise ValueError(
            f"need more than 2f={2 * f} values, got {len(values)}"
        )
    ordered = sorted(values)
    survivors = ordered[f: len(ordered) - f] if f else ordered
    return (survivors[0] + survivors[-1]) / 2


class DolevApproxAgreement(Protocol):
    """Iterated known-``f`` approximate agreement.

    Args:
        input_value: the initial estimate.
        f: the failure bound (values trimmed per side each round).
        iterations: number of halving rounds.
    """

    def __init__(self, input_value: float, f: int, iterations: int = 10):
        super().__init__()
        self.estimate = float(input_value)
        self.f = f
        self.iterations = iterations
        self.estimates: list[float] = []

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        if api.round > 1:
            values = [
                m.payload
                for m in inbox.filter(KIND_VALUE)
                if isinstance(m.payload, (int, float))
                and not isinstance(m.payload, bool)
            ]
            if len(values) > 2 * self.f:
                self.estimate = trim_f_and_midpoint(values, self.f)
            self.estimates.append(self.estimate)
            if len(self.estimates) >= self.iterations:
                api.emit(
                    "approx-output", output=self.estimate, n_v=len(values)
                )
                self.decide(api, self.estimate)
                return
            api.emit("approx-iterate", estimate=self.estimate)
        api.broadcast(KIND_VALUE, self.estimate)
