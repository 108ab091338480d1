"""Property-based tests for the Inbox counting laws."""

from hypothesis import given, strategies as st

from repro.sim.inbox import Inbox
from repro.sim.message import Message

messages = st.lists(
    st.builds(
        Message,
        sender=st.integers(min_value=0, max_value=8),
        kind=st.sampled_from(["a", "b", "c"]),
        payload=st.integers(min_value=0, max_value=3),
        instance=st.sampled_from([None, "x", "y"]),
    ),
    max_size=40,
)


class TestInboxLaws:
    @given(msgs=messages)
    def test_count_equals_len_senders(self, msgs):
        box = Inbox(msgs)
        for kind in ("a", "b", "c"):
            assert box.count(kind) == len(box.senders(kind))

    @given(msgs=messages)
    def test_payload_counts_partition_senders(self, msgs):
        box = Inbox(msgs)
        for kind in ("a", "b", "c"):
            counts = box.payload_counts(kind)
            # each (payload -> count) is bounded by the kind's senders,
            # and the max single-payload count never exceeds it
            total_senders = box.count(kind)
            assert all(c <= total_senders for c in counts.values())
            if counts:
                _value, best = box.best_payload(kind)
                assert best == max(counts.values())

    @given(msgs=messages)
    def test_filter_composes(self, msgs):
        box = Inbox(msgs)
        assert box.filter("a").filter(instance="x").senders() == (
            box.senders("a", instance="x")
        )

    @given(msgs=messages)
    def test_best_payload_is_stable_under_reordering(self, msgs):
        forward = Inbox(msgs).best_payload("a")
        backward = Inbox(reversed(msgs)).best_payload("a")
        assert forward == backward

    @given(msgs=messages)
    def test_received_from_consistent_with_from_sender(self, msgs):
        box = Inbox(msgs)
        for sender in box.senders():
            assert box.received_from(sender)
            assert len(box.from_sender(sender)) >= 1
