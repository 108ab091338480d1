"""Tests for metrics, trace, membership, and rng."""

import pytest

from repro.sim.membership import JoinSpec, MembershipSchedule
from repro.sim.metrics import Metrics
from repro.sim.rng import consecutive_ids, make_rng, sparse_ids
from repro.sim.trace import Trace


class TestMetrics:
    def test_sends_per_round(self):
        metrics = Metrics(rounds=4, sends_total=2)
        assert metrics.sends_per_round == pytest.approx(0.5)

    def test_sends_per_round_zero_rounds(self):
        assert Metrics().sends_per_round == 0.0

    def test_summary_keys(self):
        metrics = Metrics(rounds=1, sends_total=1)
        summary = metrics.summary()
        assert {"rounds", "sends_total", "deliveries_total"} <= set(summary)


class TestTrace:
    def test_record_and_filter(self):
        trace = Trace()
        trace.record(1, 10, "accept", {"tag": "x"})
        trace.record(2, 11, "accept", {"tag": "x"})
        trace.record(2, 10, "decide", {"value": 1})
        assert len(trace.of("accept")) == 2
        assert len(trace.of("accept", node=10)) == 1
        assert len(trace) == 3

    def test_first(self):
        trace = Trace()
        trace.record(5, 1, "e", {})
        trace.record(3, 2, "e", {})
        assert trace.first("e").round == 3
        assert trace.first("missing") is None

    def test_rounds_of(self):
        trace = Trace()
        trace.record(4, 1, "accept", {})
        trace.record(2, 1, "accept", {})
        trace.record(3, 2, "accept", {})
        assert trace.rounds_of("accept") == {1: 2, 2: 3}

    def test_event_get(self):
        trace = Trace()
        trace.record(1, 1, "e", {"k": "v"})
        event = trace.events[0]
        assert event.get("k") == "v"
        assert event.get("missing", 9) == 9


class TestMembership:
    def test_joins_and_leaves_at(self):
        schedule = MembershipSchedule()
        schedule.join(3, 100, lambda: None)
        schedule.join(3, 101, lambda: None, byzantine=True)
        schedule.leave(5, 100)
        assert [j.node_id for j in schedule.joins_at(3)] == [100, 101]
        assert schedule.joins_at(4) == []
        assert [l.node_id for l in schedule.leaves_at(5)] == [100]
        assert not schedule.is_empty()

    def test_empty(self):
        assert MembershipSchedule().is_empty()

    def test_join_spec_carries_byzantine_flag(self):
        spec = JoinSpec(1, 2, lambda: None, byzantine=True)
        assert spec.byzantine


class TestRng:
    def test_make_rng_none_is_deterministic(self):
        assert make_rng(None).random() == make_rng(0).random()

    def test_sparse_ids_unique_sorted(self):
        ids = sparse_ids(50, make_rng(1))
        assert len(set(ids)) == 50
        assert ids == sorted(ids)

    def test_sparse_ids_deterministic(self):
        assert sparse_ids(10, make_rng(5)) == sparse_ids(10, make_rng(5))

    def test_sparse_ids_overflow(self):
        with pytest.raises(ValueError):
            sparse_ids(11, make_rng(0), id_space=10)

    def test_consecutive_ids(self):
        assert consecutive_ids(3) == [0, 1, 2]
        assert consecutive_ids(3, start=5) == [5, 6, 7]
