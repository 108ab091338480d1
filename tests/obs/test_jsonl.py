"""JSONL sink: schema header, rendering, rehydration."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EventStreamError
from repro.obs import (
    SCHEMA_VERSION,
    EventBus,
    InboxDelivered,
    MessageSent,
    ProtocolEvent,
    RoundStarted,
    event_to_json,
    load_protocol_events,
    read_jsonl,
)
from repro.sim.message import Message


class TestJsonlSink:
    def test_schema_header_written_at_attach(self):
        bus = EventBus()
        buf = io.StringIO()
        sink = bus.to_jsonl(buf)
        sink.close()
        header = json.loads(buf.getvalue().splitlines()[0])
        assert header == {
            "topic": "schema",
            "v": SCHEMA_VERSION,
            "format": "repro.obs",
        }

    def test_streams_all_topics_and_counts(self):
        bus = EventBus()
        buf = io.StringIO()
        with bus.to_jsonl(buf) as sink:
            bus.publish(RoundStarted(1))
            bus.publish(ProtocolEvent(1, 42, "decide", {"value": 0}))
        assert sink.count == 2
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [doc["topic"] for doc in lines] == [
            "schema", "round-start", "protocol",
        ]
        assert lines[2]["detail"] == {"value": 0}

    def test_close_detaches_from_bus(self):
        bus = EventBus()
        buf = io.StringIO()
        sink = bus.to_jsonl(buf)
        sink.close()
        bus.publish(RoundStarted(1))
        assert sink.count == 0
        assert bus.sink("round-start") is None

    def test_path_target_owns_file(self, tmp_path):
        bus = EventBus()
        path = tmp_path / "events.jsonl"
        sink = bus.to_jsonl(path)
        bus.publish(RoundStarted(3))
        sink.close()
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert docs[1] == {"topic": "round-start", "round": 3}


    def test_multicast_renders_as_per_recipient_send_lines(self):
        bus = EventBus()
        fanout, scalars = io.StringIO(), io.StringIO()
        event = MessageSent(
            3, 7, "input", (1,), ("id", 2), (10, 11, 12), (), 2,
            (True, False, True),
        )
        with bus.to_jsonl(fanout) as sink:
            bus.publish(event)
        assert sink.count == 3
        with bus.to_jsonl(scalars):
            for dest, staged in ((10, True), (11, False), (12, True)):
                bus.publish(
                    MessageSent(
                        3, 7, "input", (1,), ("id", 2), (dest,),
                        staged=staged,
                    )
                )
        assert fanout.getvalue() == scalars.getvalue()


class TestRendering:
    def test_non_json_payloads_degrade_to_repr(self):
        event = MessageSent(1, 5, "echo", (frozenset({1}),))
        doc = event_to_json(event)
        assert doc["payload"] == repr(frozenset({1}))

    def test_deliver_renders_message_batch(self):
        message = Message(sender=9, kind="echo", payload=(1, 2))
        doc = event_to_json(InboxDelivered(4, 7, (message,)))
        assert doc["count"] == 1
        assert doc["messages"] == [
            {
                "from": 9,
                "kind": "echo",
                "payload": [1, 2],  # sequences recurse into JSON arrays
                "instance": None,
            }
        ]

    def test_broadcast_dest_omitted(self):
        doc = event_to_json(MessageSent(1, 5, "echo", (None,)))
        assert "dest" not in doc  # None = broadcast
        assert doc["payload"] is None  # payload always present


class TestReaders:
    def roundtrip(self, *events):
        bus = EventBus()
        buf = io.StringIO()
        with bus.to_jsonl(buf):
            for event in events:
                bus.publish(event)
        return buf.getvalue()

    def test_read_jsonl_yields_all_docs(self):
        text = self.roundtrip(RoundStarted(1), RoundStarted(2))
        docs = list(read_jsonl(text.splitlines()))
        assert len(docs) == 3  # header + 2

    def test_load_protocol_events_filters_and_rehydrates(self):
        text = self.roundtrip(
            RoundStarted(1),
            ProtocolEvent(1, 42, "accept", {"tag": "t"}),
        )
        events = load_protocol_events(text.splitlines())
        assert events == [ProtocolEvent(1, 42, "accept", {"tag": "t"})]

    def test_future_schema_version_rejected(self):
        line = json.dumps({"topic": "schema", "v": SCHEMA_VERSION + 1})
        with pytest.raises(ValueError):
            list(read_jsonl([line]))

    @pytest.mark.parametrize(
        "bad, problem",
        [
            ("{not json", "not JSON"),
            ("[" * 100_000, "not JSON"),  # the decoder's recursion limit
            ("[1, 2]", "expected a JSON object, got list"),
            ('{"round": 3}', "no 'topic'"),
            ('{"topic": "schema", "v": 99}', "schema v99"),
        ],
        ids=["syntax", "nesting", "array", "no-topic", "newer-schema"],
    )
    def test_malformed_line_is_named(self, bad, problem):
        lines = [json.dumps({"topic": "schema", "v": 1}), "", bad]
        with pytest.raises(EventStreamError, match=problem) as info:
            list(read_jsonl(lines))
        assert info.value.line == 3
        assert str(info.value).startswith("events line 3: ")

    def test_protocol_line_without_its_fields_is_named(self):
        lines = ['{"topic": "round-start", "round": 1}',
                 '{"topic": "protocol", "round": 1, "detail": {}}']
        with pytest.raises(EventStreamError, match="lacks node, event") as e:
            load_protocol_events(lines)
        assert e.value.line == 2


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=8,
)
_doc = st.fixed_dictionaries(
    {"topic": st.sampled_from(["schema", "protocol", "deliver"])},
    optional={key: _json for key in ("v", "round", "node", "event", "detail")},
)
_line = st.text() | _json.map(json.dumps) | _doc.map(json.dumps)


@settings(max_examples=200, deadline=None)
@given(st.lists(_line, max_size=6))
def test_any_lines_read_as_dicts_or_a_stream_error(lines):
    try:
        docs = list(read_jsonl(lines))
        events = load_protocol_events(lines)
    except EventStreamError:
        return
    assert all(isinstance(doc, dict) and "topic" in doc for doc in docs)
    assert all(isinstance(event, ProtocolEvent) for event in events)
