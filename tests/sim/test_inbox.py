"""Tests for repro.sim.inbox — the quorum-counting helpers."""

from repro.sim.inbox import Inbox
from repro.sim.message import Message


def inbox_of(*specs):
    """Build an inbox from (sender, kind, payload[, instance]) tuples."""
    messages = []
    for spec in specs:
        sender, kind, payload = spec[0], spec[1], spec[2]
        instance = spec[3] if len(spec) > 3 else None
        messages.append(Message(sender, kind, payload, instance))
    return Inbox(messages)


class TestCounting:
    def test_count_distinct_senders(self):
        box = inbox_of((1, "echo", "m"), (2, "echo", "m"), (3, "echo", "m"))
        assert box.count("echo", payload="m") == 3

    def test_count_is_per_sender_not_per_message(self):
        # Same sender twice with the same payload counts once (the network
        # dedups, but the inbox must be robust regardless).
        box = Inbox(
            [Message(1, "echo", "m"), Message(1, "echo", "m")]
        )
        assert box.count("echo", payload="m") == 1

    def test_count_separates_payloads(self):
        box = inbox_of((1, "echo", "m"), (2, "echo", "w"))
        assert box.count("echo", payload="m") == 1
        assert box.count("echo", payload="w") == 1
        assert box.count("echo") == 2

    def test_senders(self):
        box = inbox_of((1, "a", None), (2, "b", None), (1, "b", None))
        assert box.senders() == {1, 2}
        assert box.senders("b") == {1, 2}
        assert box.senders("a") == {1}

    def test_payload_counts(self):
        box = inbox_of(
            (1, "input", 0), (2, "input", 0), (3, "input", 1)
        )
        counts = box.payload_counts("input")
        assert counts[0] == 2
        assert counts[1] == 1

    def test_best_payload(self):
        box = inbox_of(
            (1, "input", 0), (2, "input", 0), (3, "input", 1)
        )
        value, count = box.best_payload("input")
        assert (value, count) == (0, 2)

    def test_best_payload_empty(self):
        assert Inbox().best_payload("input") == (None, 0)

    def test_best_payload_tie_is_deterministic(self):
        box_a = inbox_of((1, "input", 0), (2, "input", 1))
        box_b = inbox_of((2, "input", 1), (1, "input", 0))
        assert box_a.best_payload("input") == box_b.best_payload("input")

    def test_same_sender_two_payloads_counts_for_both(self):
        # A Byzantine node sending two different values backs each once.
        box = inbox_of((1, "input", 0), (1, "input", 1), (2, "input", 0))
        counts = box.payload_counts("input")
        assert counts[0] == 2
        assert counts[1] == 1


class TestFiltering:
    def test_filter_kind(self):
        box = inbox_of((1, "a", None), (2, "b", None))
        assert len(box.filter("a")) == 1

    def test_filter_instance(self):
        box = inbox_of((1, "input", 0, "x"), (2, "input", 0, "y"))
        assert box.filter("input", instance="x").senders() == {1}

    def test_from_sender(self):
        box = inbox_of((1, "a", None), (2, "a", None))
        assert len(box.from_sender(1)) == 1

    def test_received_from(self):
        box = inbox_of((7, "msg", "hello"),)
        assert box.received_from(7, "msg")
        assert box.received_from(7, "msg", payload="hello")
        assert not box.received_from(7, "msg", payload="bye")
        assert not box.received_from(8, "msg")

    def test_kinds_and_instances(self):
        box = inbox_of((1, "a", None, "i"), (2, "b", None))
        assert box.kinds() == {"a", "b"}
        assert box.instances() == {"i"}

    def test_bool_and_len(self):
        assert not Inbox()
        assert len(Inbox()) == 0
        assert inbox_of((1, "a", None))


class TestIndexViews:
    def test_restricted_to_is_identity_when_all_members(self):
        box = inbox_of((1, "a", None), (2, "b", None))
        assert box.restricted_to(frozenset({1, 2, 3})) is box

    def test_restricted_to_drops_strangers(self):
        box = inbox_of((1, "a", None), (9, "a", None))
        restricted = box.restricted_to(frozenset({1}))
        assert restricted.senders() == {1}
        assert len(restricted) == 1

    def test_single_axis_filters_are_cached_views(self):
        box = inbox_of((1, "a", None, "i"), (2, "b", None))
        assert box.filter("a") is box.filter("a")
        assert box.filter(instance="i") is box.filter(instance="i")
        assert box.from_sender(1) is box.from_sender(1)
        assert box.filter() is box

    def test_payload_counts_returns_a_fresh_counter(self):
        # Callers may mutate the Counter (e.g. += phantom votes); the
        # shared index must hand out copies, never its own cache.
        box = inbox_of((1, "input", 0), (2, "input", 0))
        first = box.payload_counts("input")
        first[0] = 999
        assert box.payload_counts("input")[0] == 2

    def test_senders_returns_a_fresh_set(self):
        box = inbox_of((1, "a", None))
        grabbed = box.senders()
        grabbed.add(42)
        assert box.senders() == {1}

    def test_query_after_priming_other_view_of_same_index(self):
        index = Inbox([Message(1, "input", 0), Message(2, "input", 1)]).index
        primer, reader = Inbox(index=index), Inbox(index=index)
        assert primer.best_payload("input") == reader.best_payload("input")
        assert reader.senders("input") == {1, 2}
