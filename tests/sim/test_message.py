"""Tests for repro.sim.message."""

import pytest

from repro.sim.message import BROADCAST, Message, Outbox, Send


class TestMessage:
    def test_immutable(self):
        message = Message(sender=1, kind="echo", payload="x")
        with pytest.raises(AttributeError):
            message.kind = "other"

    def test_hashable_for_dedup(self):
        a = Message(1, "echo", ("m", 2))
        b = Message(1, "echo", ("m", 2))
        assert a == b
        assert len({a, b}) == 1

    def test_distinct_payloads_not_deduped(self):
        a = Message(1, "echo", "x")
        b = Message(1, "echo", "y")
        assert len({a, b}) == 2

    def test_matches_kind(self):
        message = Message(1, "echo", "x")
        assert message.matches("echo")
        assert not message.matches("init")

    def test_matches_payload_with_ellipsis_wildcard(self):
        message = Message(1, "echo", None)
        assert message.matches("echo")  # payload wildcard
        assert message.matches("echo", payload=None)  # explicit None
        assert not message.matches("echo", payload="x")

    def test_matches_instance(self):
        message = Message(1, "input", 0, instance=("to", 3))
        assert message.matches("input", instance=("to", 3))
        assert not message.matches("input", instance=("to", 4))
        assert message.matches(None)  # kind wildcard


class TestSend:
    def test_stamped_injects_sender(self):
        send = Send("echo", ("p",))
        wire = send.stamped(42)
        assert wire.sender == 42
        assert wire.kind == "echo"
        assert wire.payload == "p"

    def test_stamped_preserves_instance(self):
        send = Send("input", (1,), instance="id-1", dests=(7,))
        assert send.stamped(3).instance == "id-1"


class TestOutbox:
    def test_broadcast_and_send_collected_in_order(self):
        outbox = Outbox()
        outbox.broadcast("init")
        outbox.send(5, "ack", 3)
        sends = list(outbox)
        assert len(outbox) == 2
        assert sends[0].dest is BROADCAST
        assert sends[1].dest == 5
        assert sends[1].payload == 3
