"""Adversarial tests for total ordering: handshake lies, event equivocation."""

import pytest

from repro.adversary.base import ByzantineStrategy
from repro.analysis.verdicts import ChainPrefix, fold
from repro.core.total_order import TotalOrderNode, events_from_dict
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


class AckLiar(ByzantineStrategy):
    """Answers every `present` with a wildly wrong round number.

    The joiner adopts the *majority* ack value; with g > 2f the correct
    replies always outnumber the lies, so the handshake must survive.
    """

    def __init__(self, lie: int = 9999):
        self._lie = lie
        self._pending: list[int] = []

    def on_round(self, view):
        sends = [self.to(dest, "ack", self._lie) for dest in self._pending]
        self._pending = [
            m.sender for m in view.inbox.filter("present")
        ]
        return sends


class EventEquivocator(ByzantineStrategy):
    """Announces itself, then broadcasts *different* events to different
    halves of the network with the correct round stamps.

    Parallel consensus must resolve each of its per-round submissions to
    one agreed value (or none) — never to different values at different
    nodes."""

    def on_round(self, view):
        sends = []
        if view.round == 1:
            sends.append(self.broadcast("present"))
        # stamp r-2: events broadcast in local round r arrive at r+1 and
        # must carry the witnessing round (receiver checks r_recv - 1).
        # Seeded nodes' local round == global round - 2.
        stamp = view.round - 2
        if stamp >= 1 and view.round % 3 == 0:
            ordered = sorted(view.correct_nodes)
            half = len(ordered) // 2
            sends.extend(
                self.to(d, "event", (f"evil-A@{stamp}", stamp))
                for d in ordered[:half]
            )
            sends.extend(
                self.to(d, "event", (f"evil-B@{stamp}", stamp))
                for d in ordered[half:]
            )
        return sends


def run_network(strategy_builder, seed=0, rounds=80, joiner=False):
    rng = make_rng(seed)
    ids = sparse_ids(10, rng)
    correct_ids, byz_ids = ids[:7], ids[7:9]
    joiner_id = ids[9] if joiner else None

    membership = MembershipSchedule()
    if joiner:
        membership.join(
            16, joiner_id, lambda: TotalOrderNode(seed=False)
        )
    net = SyncNetwork(seed=seed, membership=membership, rushing=True)
    for index, node_id in enumerate(correct_ids):
        net.add_correct(
            node_id,
            TotalOrderNode(
                event_source=events_from_dict(
                    {r: f"e{index}@{r}" for r in range(2, 40, 6)}
                )
            ),
        )
    for node_id in byz_ids:
        net.add_byzantine(node_id, strategy_builder())
    net.run(rounds, until_all_halted=False)
    return net, correct_ids, joiner_id


class TestAckLiar:
    @pytest.mark.parametrize("seed", range(3))
    def test_joiner_survives_ack_lies(self, seed):
        net, correct_ids, joiner_id = run_network(
            AckLiar, seed=seed, joiner=True
        )
        joiner = net.protocols()[joiner_id]
        assert joiner.joined
        # the adopted round must be a real one (majority of correct
        # acks), not the lie
        assert joiner.local_round < 200
        assert fold(net.trace, ChainPrefix()) == {"chain-prefix": None}

    def test_liar_acks_do_not_corrupt_veterans(self):
        net, correct_ids, _ = run_network(AckLiar, seed=5)
        chains = [net.protocols()[n].chain for n in correct_ids]
        assert all(c == chains[0] for c in chains)
        assert chains[0]  # events still finalize


class TestEventEquivocation:
    @pytest.mark.parametrize("seed", range(3))
    def test_equivocated_events_resolve_consistently(self, seed):
        net, correct_ids, _ = run_network(EventEquivocator, seed=seed)
        chains = [net.protocols()[n].chain for n in correct_ids]
        assert all(c == chains[0] for c in chains), "chains diverged"
        # whatever survived of the equivocated events, each (round,
        # byz-source) slot holds at most one value in the agreed chain
        slots = {}
        for round_no, source, event in chains[0]:
            assert slots.setdefault((round_no, source), event) == event

    def test_correct_events_unharmed(self):
        net, correct_ids, _ = run_network(EventEquivocator, seed=9)
        chain = net.protocols()[correct_ids[0]].chain
        agreed_events = {entry[2] for entry in chain}
        # every correct event submitted early enough to finalize is there
        for index in range(7):
            assert f"e{index}@2" in agreed_events


class TestFinalityInternals:
    def test_finality_formula_is_the_papers(self):
        node = TotalOrderNode()
        node.local_round = 30
        # fabricate a machine entry with |S| = 7: final iff
        # 2*(30 - r') > 5*7 + 4 = 39  <=>  r' < 30 - 19.5  <=>  r' <= 10
        class IdleMachine:
            @staticmethod
            def idle():
                return True

        node.machines[10] = (IdleMachine(), 7)
        node.machines[11] = (IdleMachine(), 7)
        assert node._is_final(10)
        assert not node._is_final(11)

    def test_a_machine_never_stepped_again_is_final_on_schedule(self):
        # Finality reads the machine's own idleness, not whether anybody
        # ran it lately: real machines taken through their two
        # initialization rounds and then left alone (what the quiescence
        # skip does to them) become final exactly at the paper's bound.
        from repro.core.parallel_consensus import ParallelConsensusMachine
        from repro.sim.inbox import Inbox
        from repro.sim.message import Outbox
        from repro.sim.node import NodeApi

        members = frozenset(range(7))
        node = TotalOrderNode()
        for machine_round in (10, 11):
            machine = ParallelConsensusMachine(
                start_round=machine_round + 3,
                membership=members,
                base_tag=("to", machine_round),
            )
            for round_no in (machine_round + 3, machine_round + 4):
                api = NodeApi(
                    node_id=0,
                    round_no=round_no,
                    known_contacts=members,
                    outbox=Outbox(),
                )
                machine.on_round(api, Inbox())
            node.machines[machine_round] = (machine, len(members))
        node.final_through = 9
        api = NodeApi(
            node_id=0, round_no=32, known_contacts=members, outbox=Outbox()
        )
        # |S| = 7: round r' is final once 2 * (r - r') > 39, i.e. at
        # r = r' + 20 — one round apart for the two machines.
        for local_round, final_through in ((29, 9), (30, 10), (31, 11)):
            node.local_round = local_round
            node._advance_finality(api)
            assert node.final_through == final_through
        assert not node.machines

    def test_non_idle_machine_never_final(self):
        node = TotalOrderNode()
        node.local_round = 100

        class BusyMachine:
            @staticmethod
            def idle():
                return False

        node.machines[1] = (BusyMachine(), 7)
        assert not node._is_final(1)
