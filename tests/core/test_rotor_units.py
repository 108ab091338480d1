"""Unit tests for the rotor's building blocks (CandidateSet/RotorCursor)."""

import pytest

from repro.analysis.campaign import evaluate_spec
from repro.core.quorum import sorted_tags
from repro.core.rotor import CandidateSet, RotorCore, RotorCursor
from repro.scenario import RunSpec
from repro.sim.inbox import Inbox
from repro.sim.message import Message, Outbox
from repro.sim.node import NodeApi


def api_for(node_id=1, round_no=3):
    return NodeApi(
        node_id=node_id,
        round_no=round_no,
        known_contacts=frozenset(range(100)),
        outbox=Outbox(),
    )


class TestCandidateSet:
    def test_announce_and_echo(self):
        candidates = CandidateSet()
        api = api_for()
        candidates.announce(api)
        sends = list(api._outbox)
        assert sends[0].kind == "init"

        api = api_for(round_no=2)
        inbox = Inbox([Message(5, "init"), Message(9, "init")])
        candidates.echo_inits(api, inbox)
        echoed = [s.payload for s in api._outbox]
        assert echoed == [5, 9]

    def test_acceptance_keeps_sorted_order(self):
        candidates = CandidateSet()
        api = api_for()
        candidates.absorb(
            Inbox(
                [Message(s, "echo", p) for p in (30, 10, 20) for s in range(6)]
            )
        )
        candidates.evaluate(api, n_v=6)
        assert candidates.candidates == [10, 20, 30]

    def test_contains_and_len(self):
        candidates = CandidateSet()
        api = api_for()
        candidates.absorb(
            Inbox([Message(s, "echo", 7) for s in range(6)])
        )
        candidates.evaluate(api, n_v=6)
        assert 7 in candidates
        assert len(candidates) == 1

    def test_instance_tagging(self):
        candidates = CandidateSet(instance=("to", 3))
        api = api_for()
        candidates.announce(api)
        assert list(api._outbox)[0].instance == ("to", 3)
        # foreign-instance echoes ignored
        candidates.absorb(
            Inbox([Message(s, "echo", 9, instance=None) for s in range(6)])
        )
        candidates.evaluate(api, n_v=6)
        assert candidates.candidates == []

    def test_forged_tags_accepted_alongside_ids_do_not_crash(self):
        # Outside n > 3f a forged echo tag can reach the accept
        # threshold next to real ids; they do not compare, and the
        # candidate list falls back to one total order whatever order
        # the tags were accepted in.
        forged = ("x", 1)
        for first, second in ((4, forged), (forged, 4)):
            candidates = CandidateSet()
            for round_no, tag in enumerate((first, second, "y", 2.5), 3):
                candidates.absorb(
                    Inbox([Message(s, "echo", tag) for s in range(6)])
                )
                candidates.evaluate(api_for(round_no=round_no), n_v=6)
            assert candidates.candidates == [2.5, 4, "y", forged]

    def test_id_lists_keep_their_natural_order(self):
        ids = [30, 7, 1000, -2, 7.5]
        assert sorted_tags(ids) == sorted(ids)
        assert sorted_tags({"b": 0, "a": 1}) == ["a", "b"]


@pytest.mark.parametrize("seed", [1, 2])
def test_echo_forger_outside_the_resiliency_bound_is_no_crash(seed):
    # The reproducer the one-judge campaign found: n = 9, f = 3 (so
    # n > 3f fails) with rushing echo forgers used to end in
    # "crash: TypeError at repro/core/rotor.py:135" on every seed.
    spec = RunSpec(
        protocol="consensus",
        n=9,
        f=3,
        adversary="echo-forger",
        rushing=True,
        enforce_resiliency=False,
        seed=seed,
    )
    verdicts = evaluate_spec(spec)["verdicts"]
    assert not any(
        verdict and verdict.startswith("crash:")
        for verdict in verdicts.values()
    ), verdicts


class TestRotorCursor:
    def run_select(self, cursor, candidates, round_no=3, node_id=1,
                   allow_repeat=False):
        api = api_for(node_id=node_id, round_no=round_no)
        step = cursor.select(
            api, candidates, opinion="op", allow_repeat=allow_repeat
        )
        return step, api

    def test_cycles_in_id_order(self):
        cursor = RotorCursor()
        selections = [
            self.run_select(cursor, [10, 20, 30])[0].coordinator
            for _ in range(3)
        ]
        assert selections == [10, 20, 30]

    def test_repeat_detection(self):
        cursor = RotorCursor()
        for _ in range(3):
            self.run_select(cursor, [10, 20, 30])
        step, _api = self.run_select(cursor, [10, 20, 30])
        assert step.repeat and step.coordinator == 10

    def test_repeat_without_allow_suppresses_opinion(self):
        cursor = RotorCursor()
        self.run_select(cursor, [10], node_id=10)
        step, api = self.run_select(cursor, [10], node_id=10)
        assert step.repeat
        assert not list(api._outbox)  # no opinion re-broadcast

    def test_repeat_with_allow_rebroadcasts_opinion(self):
        cursor = RotorCursor()
        self.run_select(cursor, [10], node_id=10)
        step, api = self.run_select(
            cursor, [10], node_id=10, allow_repeat=True
        )
        assert step.repeat
        assert [s.kind for s in api._outbox] == ["opinion"]

    def test_growing_candidate_set_shifts_modulus(self):
        cursor = RotorCursor()
        first, _ = self.run_select(cursor, [10, 30])
        second, _ = self.run_select(cursor, [10, 20, 30])
        # r=1 over a 3-element set picks index 1
        assert (first.coordinator, second.coordinator) == (10, 20)

    def test_empty_candidates_guard(self):
        cursor = RotorCursor()
        step, _ = self.run_select(cursor, [])
        assert step.coordinator is None and not step.repeat
        assert cursor.rotor_round == 1  # the round counter still ticks

    def test_selection_order_excludes_repeats(self):
        cursor = RotorCursor()
        for _ in range(5):
            self.run_select(cursor, [10, 20], allow_repeat=True)
        assert cursor.selection_order == [10, 20]


class TestOpinionFrom:
    def test_reads_first_opinion_of_coordinator(self):
        inbox = Inbox(
            [
                Message(5, "opinion", "a"),
                Message(6, "opinion", "b"),
            ]
        )
        assert RotorCore.opinion_from(inbox, 5) == "a"
        assert RotorCore.opinion_from(inbox, 6) == "b"
        assert RotorCore.opinion_from(inbox, 7) is None
        assert RotorCore.opinion_from(inbox, None) is None

    def test_instance_scoped(self):
        inbox = Inbox([Message(5, "opinion", "a", instance="x")])
        assert RotorCore.opinion_from(inbox, 5, instance="x") == "a"
        assert RotorCore.opinion_from(inbox, 5, instance="y") is None
