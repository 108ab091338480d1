"""Byzantine renaming in the id-only model (appendix extension X2).

Nodes hold unique but arbitrarily large identifiers; the goal is to agree
on a compact renaming — every correct node ends with the same ordered set
``S`` of identifiers and renames each ``p ∈ S`` to its rank in ``S``.

The identifier set is built exactly like reliable-broadcast acceptance
(announce/echo/thresholds).  Termination is detected by *quietness*: when
a node sees two consecutive rounds in which ``S`` did not change, it
proposes ``terminate(k)``; the proposal itself spreads through the same
``n_v/3`` / ``2n_v/3`` echo thresholds, and a ``2n_v/3`` quorum ends the
protocol.  The appendix bounds the run at ``O(f)`` rounds
(``<= 4f + 3`` main-loop rounds before a common quiet window appears).
"""

from __future__ import annotations

from repro.core.quorum import EchoVoting, ViewTracker
from repro.sim.inbox import Inbox
from repro.sim.node import NodeApi, Protocol
from repro.types import NodeId

KIND_INIT = "init"
KIND_ECHO = "echo"
KIND_TERMINATE = "terminate"


class ByzantineRenaming(Protocol):
    """One node's renaming execution.

    The output is the agreed, sorted tuple of identifiers; this node's new
    name is its (1-based) rank, exposed as :attr:`new_name`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tracker = ViewTracker()
        self.id_voting = EchoVoting()
        self.terminate_voting = EchoVoting()
        self._last_change_round: int | None = None
        self._rounds_without_change = 0

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        self.tracker.observe(inbox)
        if api.round == 1:
            api.broadcast(KIND_INIT)
            return
        if api.round == 2:
            for sender in sorted(inbox.senders(KIND_INIT)):
                api.broadcast(KIND_ECHO, sender)
            return

        n_v = self.tracker.n_v

        # The appendix's M, echoes first: the decision's round-shared
        # tuple is one batch.  Its S is ``id_voting.accepted``.
        self.id_voting.absorb_inbox(inbox, KIND_ECHO)
        decision = self.id_voting.evaluate(n_v, api.round)
        api.broadcast_many(KIND_ECHO, decision.echo)
        for name in decision.newly_accepted:
            api.emit("rename-add", name=name)

        terminate = []
        if decision.newly_accepted:
            self._rounds_without_change = 0
        else:
            self._rounds_without_change += 1
        if self._rounds_without_change >= 2:
            terminate.append(api.round - 1)

        self.terminate_voting.absorb_inbox(inbox, KIND_TERMINATE)
        term_decision = self.terminate_voting.evaluate(n_v, api.round)
        terminate.extend(term_decision.echo)

        # Deduplicate (a terminate proposal may be both self-initiated
        # and threshold-relayed in the same round).
        for proposal in dict.fromkeys(terminate):
            api.broadcast(KIND_TERMINATE, proposal)

        if term_decision.newly_accepted:
            assignment = tuple(sorted(self.id_voting.accepted))
            api.emit("rename-done", size=len(assignment))
            self.decide(api, assignment)

    @property
    def new_name(self) -> int | None:
        """This node's agreed compact name (1-based rank), once decided."""
        if not self.halted or self.output is None:
            return None
        try:
            return self.output.index(self._own_id) + 1
        except ValueError:
            return None

    # The protocol does not know its own id until the first api call; we
    # capture it lazily for new_name.
    _own_id: NodeId | None = None

    def decide(self, api: NodeApi, value) -> None:  # noqa: D102
        self._own_id = api.node_id
        super().decide(api, value)
