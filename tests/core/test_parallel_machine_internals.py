"""Unit tests for ParallelConsensusMachine internals.

The integration tests cover end-to-end behaviour; these pin the
machinery the total-ordering layer depends on: wire-tag namespacing,
the phase cap, join-window arithmetic, and result bookkeeping.
"""

from repro.core.parallel_consensus import (
    ConsensusInstance,
    ParallelConsensus,
    ParallelConsensusMachine,
    namespace_view,
)
from repro.sim.inbox import Inbox
from repro.sim.message import Message, Outbox
from repro.sim.node import NodeApi
from repro.types import BOTTOM

from tests.conftest import run_quick


def walked(machine, *tags):
    """The ``(inner_id, wire_tag)`` pairs *machine* reads off a round
    carrying one message under each of *tags* (its joining walk)."""
    inbox = Inbox(
        Message(sender, "input", 0, tag) for sender, tag in enumerate(tags)
    )
    return list(namespace_view(inbox).get(machine.base_tag, ()))


class TestNamespacing:
    def test_bare_tags_without_base(self):
        machine = ParallelConsensusMachine(start_round=1)
        assert machine._wire_tag("x") == "x"
        assert walked(machine, "x", None) == [("x", "x")]
        # Every tag is its own inner id, tuples included.
        assert walked(machine, ("to", 7), (None, "x")) == [
            (("to", 7), ("to", 7)),
            ((None, "x"), (None, "x")),
        ]

    def test_tuple_tags_with_base(self):
        machine = ParallelConsensusMachine(
            start_round=1, base_tag=("to", 7)
        )
        assert machine._wire_tag("u1") == (("to", 7), "u1")
        assert walked(machine, (("to", 7), "u1")) == [
            ("u1", (("to", 7), "u1"))
        ]

    def test_foreign_namespace_rejected(self):
        machine = ParallelConsensusMachine(
            start_round=1, base_tag=("to", 7)
        )
        assert walked(machine, (("to", 8), "u1"), "bare", ("to", 7)) == []
        # None is the "untagged" marker, never an instance id.
        assert walked(machine, (("to", 7), None)) == []

    def test_two_machines_do_not_cross_talk(self):
        a = ParallelConsensusMachine(start_round=1, base_tag=("to", 1))
        b = ParallelConsensusMachine(start_round=1, base_tag=("to", 2))
        assert walked(a, b._wire_tag("u")) == []
        assert walked(b, b._wire_tag("u")) == [("u", b._wire_tag("u"))]


class TestQuiescence:
    def machine(self, **kwargs):
        return ParallelConsensusMachine(
            start_round=10, base_tag=("to", 7), **kwargs
        )

    def spoken(self, *tags):
        return namespace_view(
            Inbox(Message(1, "echo", 0, tag) for tag in tags)
        )

    def test_needs_both_initialization_rounds_behind_it(self):
        machine = self.machine()
        silence = self.spoken()
        assert not machine.quiescent(10, silence)  # announces
        assert not machine.quiescent(11, silence)  # echoes the inits
        assert machine.quiescent(12, silence)
        assert machine.quiescent(40, silence)

    def test_pending_input_or_running_instance_keeps_it_live(self):
        machine = self.machine()
        machine.submit("u", 1)
        assert not machine.quiescent(12, self.spoken())
        machine._pending.clear()
        machine.instances["u"] = ConsensusInstance("u", 12, 1)
        assert not machine.quiescent(12, self.spoken())

    def test_woken_by_its_own_tag_or_a_tag_under_it_only(self):
        machine = self.machine()
        assert not machine.quiescent(20, self.spoken(("to", 7)))
        assert not machine.quiescent(20, self.spoken((("to", 7), "u")))
        assert not machine.quiescent(20, self.spoken((("to", 7), None)))
        assert machine.quiescent(
            20, self.spoken(("to", 8), (("to", 8), "u"), "to", 7, None)
        )

    def test_unnamespaced_machine_is_woken_by_any_message(self):
        machine = ParallelConsensusMachine(start_round=10)
        assert machine.quiescent(12, self.spoken())
        assert not machine.quiescent(12, self.spoken(None))
        assert not machine.quiescent(12, self.spoken("x"))

    def test_skipped_rounds_leave_no_trace(self):
        # Stepping a quiescent machine and not stepping it are the same
        # thing: same state afterwards, nothing sent, nothing emitted.
        members = frozenset(range(4))
        stepped = self.machine(membership=members)
        skipped = self.machine(membership=members)
        emitted = []
        outbox = Outbox()
        chatter = Inbox(
            [Message(1, "echo", 2, ("to", 8)), Message(2, "present")]
        )
        assert stepped.quiescent(14, namespace_view(chatter))
        stepped.on_round(
            NodeApi(
                node_id=0,
                round_no=14,
                known_contacts=members,
                outbox=outbox,
                trace_sink=lambda *event: emitted.append(event),
            ),
            chatter,
        )
        assert not outbox.sends and not emitted

        def state(machine):
            voting = machine.candidate_set.voting
            return (
                machine.instances,
                machine._pending,
                machine._results,
                machine._order,
                machine._order_dirty,
                machine.candidate_set.candidates,
                voting.accepted,
                voting._pending,
                voting._shared,
            )

        assert state(stepped) == state(skipped)


class TestPhaseCap:
    def test_cap_formula(self):
        machine = ParallelConsensusMachine(
            start_round=1, membership=frozenset(range(9))
        )
        assert machine.phase_cap == 9 // 2 + 3

    def test_cap_exceeds_legitimate_phase_budget(self):
        # legitimate instances need <= f + 2 phases; f < n_v/2
        for n_v in range(4, 40):
            f_max = (n_v - 1) // 3
            assert n_v // 2 + 3 > f_max + 2

    def test_cap_fires_and_retires_instance(self):

        instance = ConsensusInstance("ghost", start_round=3, value=BOTTOM)
        membership = frozenset(range(5))
        api = NodeApi(
            node_id=0,
            round_no=3,
            known_contacts=membership,
            outbox=Outbox(),
        )
        # march the instance through empty rounds until past the cap
        round_no = 3
        for _ in range(200):
            api = NodeApi(
                node_id=0,
                round_no=round_no,
                known_contacts=membership,
                outbox=Outbox(),
            )
            instance.on_round(
                api, Inbox(), membership, 5, [0, 1, 2], phase_cap=4
            )
            if instance.terminated:
                break
            round_no += 1
        assert instance.terminated
        assert not instance.result.has_output


class TestWindowsAndResults:
    def test_join_window_arithmetic(self):
        machine = ParallelConsensusMachine(start_round=10)
        assert not machine.join_window_closed(17)
        assert machine.join_window_closed(18)

    def test_idle_transitions(self):
        machine = ParallelConsensusMachine(start_round=1)
        assert machine.idle()
        machine.submit("x", 1)
        assert not machine.idle()

    def test_results_include_bottom_and_outputs(self):
        result = run_quick(
            correct=4,
            seed=2,
            protocol_factory=lambda nid, i: ParallelConsensus(
                {"real": 5} if i == 0 else {}
            ),
        )
        protocol = result.protocols[result.correct_ids[1]]
        assert "real" in protocol.results
        terminal = protocol.results["real"]
        # agreement: the pair was input at only one node, so whichever
        # way it went, every node's terminal record matches
        for node in result.correct_ids:
            other = result.protocols[node].results["real"]
            assert other.has_output == terminal.has_output

    def test_output_pairs_cached_until_new_result(self):
        from repro.core.parallel_consensus import InstanceResult

        machine = ParallelConsensusMachine(start_round=1)
        machine._results["a"] = InstanceResult("a", 5, round=9)
        first = machine.output_pairs()
        assert first == (("a", 5),)
        # Repeated calls hand back the very same tuple object: total
        # ordering polls every finalized machine each round.
        assert machine.output_pairs() is first
        # A new terminal result invalidates the cache the same way
        # _run_instances does when an instance terminates.
        machine._results["b"] = InstanceResult("b", 7, round=11)
        machine._output_cache = None
        second = machine.output_pairs()
        assert second == (("a", 5), ("b", 7))
        assert machine.output_pairs() is second

    def test_terminating_instance_refreshes_output_pairs(self):
        result = run_quick(
            correct=4,
            seed=5,
            protocol_factory=lambda nid, i: ParallelConsensus({"k": 3}),
        )
        machine = result.protocols[result.correct_ids[0]].machine
        pairs = machine.output_pairs()
        assert pairs == (("k", 3),)
        # The run terminated "k" through _run_instances, so the cache
        # was rebuilt after the result landed — and is now stable.
        assert machine.output_pairs() is machine.output_pairs()

    def test_resubmitting_finished_instance_is_ignored(self):
        result = run_quick(
            correct=4,
            seed=3,
            protocol_factory=lambda nid, i: ParallelConsensus({"k": 1}),
        )
        protocol = result.protocols[result.correct_ids[0]]
        machine = protocol.machine
        machine.submit("k", 99)
        machine._start_pending(_FakeApi())
        assert "k" not in machine.instances  # already in results


class _FakeApi:
    node_id = 0
    round = 50

    def emit(self, *args, **kwargs):
        pass

    def broadcast(self, *args, **kwargs):
        pass
