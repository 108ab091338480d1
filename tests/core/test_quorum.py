"""Tests for the threshold arithmetic and echo voting."""

import pytest

from repro.core.quorum import (
    EchoVoting,
    ViewTracker,
    at_least_third,
    at_least_two_thirds,
    less_than_third,
)
from repro.sim.inbox import Inbox
from repro.sim.message import Message


class TestThresholds:
    def test_exact_third_counts(self):
        assert at_least_third(3, 9)
        assert not at_least_third(2, 9)

    def test_non_divisible_population(self):
        # n=10: n/3 = 3.33..., so 4 is needed... no: "at least 10/3"
        # means count >= 3.34 -> 4?  The paper's inequality is real-
        # valued: count >= n/3, so count=4 passes and count=3 fails.
        assert not at_least_third(3, 10)
        assert at_least_third(4, 10)

    def test_two_thirds(self):
        assert at_least_two_thirds(6, 9)
        assert not at_least_two_thirds(5, 9)
        assert at_least_two_thirds(7, 10)
        assert not at_least_two_thirds(6, 10)

    def test_zero_messages_never_satisfy(self):
        assert not at_least_third(0, 0)
        assert not at_least_two_thirds(0, 0)

    def test_less_than_third_is_negation_off_origin(self):
        # Everywhere with a real message or a non-empty view the two
        # predicates partition the plane ...
        for count in range(0, 12):
            for n in range(0, 12):
                if count == 0 and n == 0:
                    continue
                assert less_than_third(count, n) != at_least_third(count, n)

    def test_origin_satisfies_neither_predicate(self):
        # ... but at count = n_v = 0 the paper's inequality 0 < 0/3 is
        # false, so "less than a third" must NOT hold (and "at least a
        # third" already fails for lack of a real message).
        assert not at_least_third(0, 0)
        assert not less_than_third(0, 0)

    def test_integer_arithmetic_no_float_edge(self):
        # 2*(3k+1)/3 boundary: count = 2k+1 must fail, 2k+2 no...
        # exhaustive mini-check against exact rational comparison
        from fractions import Fraction

        for n in range(1, 40):
            for count in range(0, n + 1):
                expected = count > 0 and Fraction(count) >= Fraction(n, 3)
                assert at_least_third(count, n) == expected
                expected2 = count > 0 and Fraction(count) >= Fraction(
                    2 * n, 3
                )
                assert at_least_two_thirds(count, n) == expected2


class TestThresholdBoundaries:
    """The exact boundary cases the integer form must get right."""

    def test_n_v_not_divisible_by_three(self):
        # Real-valued inequality count >= n_v/3 at n_v = 3k+1 / 3k+2:
        # the first satisfying integer is ceil(n_v/3), with no float
        # rounding allowed to blur the crossover.
        assert not at_least_third(1, 4) and at_least_third(2, 4)
        assert not at_least_third(1, 5) and at_least_third(2, 5)
        assert not at_least_third(2, 7) and at_least_third(3, 7)
        assert not at_least_third(3, 10) and at_least_third(4, 10)
        # count >= 2 n_v / 3 likewise: first satisfying integer is
        # ceil(2 n_v / 3).
        assert not at_least_two_thirds(2, 4) and at_least_two_thirds(3, 4)
        assert not at_least_two_thirds(3, 5) and at_least_two_thirds(4, 5)
        assert not at_least_two_thirds(4, 7) and at_least_two_thirds(5, 7)

    def test_zero_view_with_positive_count(self):
        # n_v = 0 with count > 0: a message from a sender the tracker
        # has not yet observed.  The real inequalities count >= 0/3 and
        # count >= 0 hold trivially, and the count > 0 clause is already
        # satisfied, so both thresholds pass.
        assert at_least_third(1, 0)
        assert at_least_two_thirds(1, 0)
        assert not less_than_third(1, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 100])
    def test_complementarity_at_exact_threshold(self, k):
        # At n_v = 3k the threshold is met by exactly k echoes; the
        # coordinator-switch predicate must flip at precisely that
        # count, with no value of (count, n_v) in both or neither set.
        n_v = 3 * k
        assert at_least_third(k, n_v)
        assert not less_than_third(k, n_v)
        assert less_than_third(k - 1, n_v)
        assert not at_least_third(k - 1, n_v)


class TestCoordinatorSwitchCallSites:
    """Audit of the coordinator-switch call sites for the (0, 0) fix.

    ``EarlyConsensus._resolve`` and the parallel-consensus phase-round-5
    branch are the only users of the switch condition (``core/rotor.py``
    never evaluates it — the rotor only selects, it has no switch).
    Both run against a frozen membership view that contains the node
    itself, so ``n_v >= 1`` always holds there, and on that domain the
    fixed strict predicate coincides with the old
    ``not at_least_third`` formulation — the fix cannot change any
    consensus schedule.
    """

    def test_predicates_coincide_on_the_reachable_domain(self):
        for n_v in range(1, 40):
            for count in range(0, n_v + 2):
                assert less_than_third(count, n_v) == (
                    not at_least_third(count, n_v)
                )

    def test_switch_boundary(self):
        # n_v = 9: two strongprefers switch to the coordinator's
        # opinion, three keep the own value.
        assert less_than_third(2, 9)
        assert not less_than_third(3, 9)
        # Zero strongprefers always switch (for any non-empty view).
        assert less_than_third(0, 1)
        assert less_than_third(0, 9)


class TestViewTracker:
    def test_observe_accumulates(self):
        tracker = ViewTracker()
        tracker.observe(Inbox([Message(1, "a"), Message(2, "b")]))
        tracker.observe(Inbox([Message(2, "c"), Message(3, "d")]))
        assert tracker.n_v == 3
        assert tracker.senders == {1, 2, 3}

    def test_knows(self):
        tracker = ViewTracker()
        tracker.observe_ids([5])
        assert tracker.knows(5)
        assert not tracker.knows(6)

    def test_freeze_snapshot_is_immutable_copy(self):
        tracker = ViewTracker()
        tracker.observe_ids([1, 2])
        snapshot = tracker.freeze()
        tracker.observe_ids([3])
        assert snapshot == frozenset({1, 2})
        assert tracker.n_v == 3


class TestEchoVoting:
    def test_accept_at_two_thirds(self):
        voting = EchoVoting()
        voting.absorb((s, "tag") for s in range(6))
        decision = voting.evaluate(n_v=9, round_no=3)
        assert decision.newly_accepted == ["tag"]
        assert voting.is_accepted("tag")

    def test_echo_at_third_without_accept(self):
        voting = EchoVoting()
        voting.absorb((s, "tag") for s in range(3))
        decision = voting.evaluate(n_v=9, round_no=3)
        assert decision.echo == ("tag",)
        assert decision.newly_accepted == []

    def test_accepting_tag_also_echoed(self):
        # Alg 1 line order: the echo condition is evaluated before the
        # accept in the same round, so an accepting node also re-echoes.
        voting = EchoVoting()
        voting.absorb((s, "tag") for s in range(9))
        decision = voting.evaluate(n_v=9, round_no=3)
        assert decision.echo == ("tag",)
        assert decision.newly_accepted == ["tag"]

    def test_accepted_tags_ignored_afterwards(self):
        voting = EchoVoting()
        voting.absorb((s, "tag") for s in range(9))
        voting.evaluate(9, 3)
        voting.absorb((s, "tag") for s in range(9))
        decision = voting.evaluate(9, 4)
        assert decision.echo == ()
        assert decision.newly_accepted == []

    def test_pending_cleared_between_evaluations(self):
        voting = EchoVoting()
        voting.absorb([(1, "tag"), (2, "tag")])
        voting.evaluate(9, 3)  # 2 < 3: nothing
        voting.absorb([(3, "tag")])
        decision = voting.evaluate(9, 4)
        # counts did NOT accumulate: 1 < 3
        assert decision.echo == ()

    def test_accumulation_within_one_evaluation_window(self):
        # The embedded rotor absorbs several rounds before one evaluate.
        voting = EchoVoting()
        voting.absorb([(1, "t"), (2, "t")])
        voting.absorb([(3, "t"), (1, "t")])  # sender 1 repeated: one vote
        decision = voting.evaluate(9, 5)
        assert decision.echo == ("t",)

    def test_absorb_inbox(self):
        voting = EchoVoting()
        inbox = Inbox(
            [Message(1, "echo", "p"), Message(2, "echo", "p"),
             Message(3, "other", "p")]
        )
        voting.absorb_inbox(inbox, "echo")
        decision = voting.evaluate(6, 3)
        assert decision.echo == ("p",)

    def test_acceptance_round_recorded(self):
        voting = EchoVoting()
        voting.absorb((s, "x") for s in range(9))
        voting.evaluate(9, 7)
        assert voting.accepted["x"] == 7
        assert voting.accepted_tags() == ["x"]

    def test_multiple_tags_independent(self):
        voting = EchoVoting()
        voting.absorb([(s, "a") for s in range(6)] + [(s, "b") for s in range(3)])
        decision = voting.evaluate(9, 3)
        assert set(decision.echo) == {"a", "b"}
        assert decision.newly_accepted == ["a"]
