"""Approximate agreement in the id-only model (Algorithm 4).

Each correct node inputs a real number and outputs a real number such that
(1) every output lies within the range of correct inputs, and (2) the
output range is strictly smaller than the input range — the paper's
algorithm halves it.  The classical algorithm (Dolev et al.) discards the
``f`` smallest and largest received values; here ``f`` is unknown, so each
node discards ``⌊n_v/3⌋`` from each end, where ``n_v`` is the number of
values it received.  Lemma aaWithin: ``⌊n_v/3⌋ >= f_v`` for ``n > 3f``, so
all Byzantine values can be trimmed; Lemma aaMed: fewer than half the
correct values are trimmed from either side, so the correct median always
survives, which forces the halving.

Three shapes:

* :func:`trim_and_midpoint` — the pure one-shot computation;
* :class:`ApproximateAgreement` — the paper's round, once (the default)
  or repeated to drive the range below a target width; it recomputes
  ``R_v`` from scratch each round, so nodes may join or leave between
  iterations;
* :class:`ContinuousApproximateAgreement` — the never-ending
  dynamic-network variant (§11).
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.inbox import Inbox
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId

KIND_VALUE = "value"


def trim_and_midpoint(values: Sequence[float]) -> float:
    """Discard ``⌊n/3⌋`` smallest and largest values, return the midpoint
    of the survivors' extremes.

    Raises ValueError on an empty input (a correct node always receives at
    least its own value).
    """
    if not values:
        raise ValueError("cannot agree on zero values")
    ordered = sorted(values)
    trim = len(ordered) // 3
    # len // 3 < len / 2: at least one value survives.
    survivors = ordered[trim: len(ordered) - trim]
    return (survivors[0] + survivors[-1]) / 2


def _one_value_per_sender(inbox: Inbox) -> list[float]:
    """Collapse the inbox to one value per sender.

    A Byzantine node may send several distinct values to the same node in
    one round; the set ``R_v`` of Algorithm 4 holds one value per sender
    (``n_v = |R_v|`` equals the number of senders).  We keep the smallest,
    deterministically — any fixed choice is within the adversary's power
    anyway.
    """
    per_sender: dict[NodeId, float] = {}
    # filter() serves the index's kind bucket, so with a round-shared
    # index only the ``value`` messages are walked, once per recipient.
    for message in inbox.filter(KIND_VALUE):
        value = message.payload
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue  # ignore garbage payloads outright
        if message.sender not in per_sender or value < per_sender[message.sender]:
            per_sender[message.sender] = value
    return list(per_sender.values())


class ContinuousApproximateAgreement(Protocol):
    """The dynamic-network variant of §11: never-ending estimation.

    Each round the node broadcasts its current estimate and replaces it
    with the trimmed midpoint of the values received.  Participants may
    join (starting from their own input) and leave every round, subject
    to ``n > 3f`` per round; Lemmas aaWithin/aaMed apply round-wise, so
    the range of *current* correct estimates halves relative to the
    previous round — but, as the paper notes, a joiner with an outlying
    input can widen it again.  The protocol never halts; read
    :attr:`estimate` (and :attr:`history`) whenever the scenario ends.
    """

    def __init__(self, input_value: float):
        super().__init__()
        self.estimate = float(input_value)
        self.history: list[float] = []
        #: False until this node has announced its own input once.  A
        #: joiner's first inbox is no longer empty (broadcast recipients
        #: are resolved at delivery time), so "have I spoken yet" must be
        #: tracked explicitly: the paper's dynamic model has a joiner
        #: *announce its input* in its first round — mixing starts after.
        self._announced = False

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        if self._announced:
            values = _one_value_per_sender(inbox)
            if values:
                self.estimate = trim_and_midpoint(values)
        self._announced = True
        self.history.append(self.estimate)
        api.broadcast(KIND_VALUE, self.estimate)
        api.emit("approx-estimate", estimate=self.estimate)


class ApproximateAgreement(Protocol):
    """Algorithm 4's round, *iterations* times (Theorem 8.3 per round).

    Each iteration broadcasts the current estimate and replaces it with
    the trimmed midpoint of that round's received values, emitting
    ``approx-iterate`` — or, on the last one, ``approx-output`` and the
    decision.  With one iteration this is the paper's single-round
    protocol, deciding in round 2.

    Args:
        input_value: the initial estimate.
        iterations: how many halving rounds to run.

    Attributes:
        estimates: the estimate after each completed iteration (for
            measuring per-round convergence).
    """

    def __init__(self, input_value: float, iterations: int = 1):
        super().__init__()
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.estimate = float(input_value)
        self.iterations = iterations
        self.estimates: list[float] = []

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        if api.round > 1:
            values = _one_value_per_sender(inbox)
            if values:
                self.estimate = trim_and_midpoint(values)
            self.estimates.append(self.estimate)
            if len(self.estimates) >= self.iterations:
                api.emit(
                    "approx-output", output=self.estimate, n_v=len(values)
                )
                self.decide(api, self.estimate)
                return
            api.emit("approx-iterate", estimate=self.estimate)
        api.broadcast(KIND_VALUE, self.estimate)
