"""Schema-versioned JSONL rendering of the event stream.

One JSON object per line; the first line is a schema header::

    {"topic": "schema", "v": 2, "format": "repro.obs"}
    {"topic": "run-start", "runtime": "sim", "seed": 5, "spec": {...}, ...}
    {"topic": "round-start", "round": 1}
    {"topic": "send", "round": 1, "sender": 42, "kind": "echo", ...}
    {"topic": "protocol", "round": 7, "node": 42, "event": "decide", ...}
    {"topic": "run-end", "rounds": 9, "alive": [42, ...], ...}

JSON-native values pass through; dicts and sequences recurse (tuples
become JSON arrays); everything else (``⊥``, frozensets, protocol
payload objects) is rendered via ``repr`` — a witness, not a wire
format — so a stream is diffable and greppable with ordinary tools
without committing to a wire codec.  Two runs of one spec write the
same bytes, so ``cmp`` is a determinism check.

``deliver`` events render their message batch as a count plus a list of
``{"from", "kind", "payload", "instance"}`` objects, so post-processing
never needs the in-memory :class:`~repro.sim.message.Message` type.
"""

from __future__ import annotations

import io
import json
import pathlib
from dataclasses import fields
from typing import Any, Iterable, Iterator

from repro.errors import EventStreamError
from repro.obs.events import EVENT_TYPES, SCHEMA_VERSION, ProtocolEvent

__all__ = [
    "JsonlSink",
    "event_from_json",
    "event_to_json",
    "jsonable",
    "load_protocol_events",
    "numbered_docs",
    "read_jsonl",
]

_JSON_NATIVE = (str, int, float, bool, type(None))


def jsonable(value: Any) -> Any:
    """A value as its JSONL line renders it (what reading it back gives):
    JSON-native passthrough, tuples as lists, ``str`` dict keys, and
    everything else degraded to ``repr``."""
    if isinstance(value, _JSON_NATIVE):
        return value
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return repr(value)


def _message_to_json(message: Any) -> dict:
    """Render one delivered message (sim Message or asyncsim
    AsyncMessage) without importing either type."""
    return {
        "from": jsonable(message.sender),
        "kind": message.kind,
        "payload": jsonable(message.payload),
        "instance": jsonable(getattr(message, "instance", None)),
    }


def _send_to_json(send: Any) -> dict:
    """One logical send (a single-send ``send`` row) as its line: one
    ``payload``, a ``dest`` only when direct, its frame size and its
    staged flag."""
    doc: dict[str, Any] = {
        "topic": send.topic,
        "round": jsonable(send.round),
        "sender": jsonable(send.sender),
        "kind": jsonable(send.kind),
        "payload": jsonable(send.payload),
        "instance": jsonable(send.instance),
    }
    if send.dests is not None:
        doc["dest"] = jsonable(send.dest)
    doc["wire_bytes"] = sum(send.wire_bytes)
    doc["staged"] = bool(send.staged)
    if send.time is not None:
        doc["time"] = jsonable(send.time)
    return doc


def event_to_json(event: Any) -> dict:
    """One event -> one JSON-ready dict (``topic`` first).

    A ``send`` event must be a single send: the stream has one line per
    logical send, so a row of several renders as its ``expanded()``
    sends, one dict each (what :class:`JsonlSink` writes).
    """
    if event.topic == "send":
        return _send_to_json(event)
    doc: dict[str, Any] = {"topic": event.topic}
    for field in fields(event):
        value = getattr(event, field.name)
        if field.name == "messages":
            doc["count"] = len(value)
            doc["messages"] = [_message_to_json(m) for m in value]
        elif value is not None or field.name in ("payload", "instance"):
            doc[field.name] = jsonable(value)
    return doc


class JsonlSink:
    """An all-topics subscriber streaming events to a JSONL file.

    Owns the file handle when constructed from a path (and closes it on
    :meth:`close`); borrows it when handed an open file object.  The
    schema header line is written at attach time, so even an eventless
    run produces a well-formed, versioned file.
    """

    def __init__(self, bus, target) -> None:
        self._bus = bus
        if isinstance(target, (str, pathlib.Path)):
            self._fh: io.TextIOBase = open(target, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self.count = 0
        self._fh.write(
            json.dumps(
                {"topic": "schema", "v": SCHEMA_VERSION, "format": "repro.obs"}
            )
            + "\n"
        )
        bus.subscribe(self, topics=None)

    def __call__(self, event: Any) -> None:
        topic = event.topic
        if topic == "send":
            # One line per logical send, however the runtime grouped its
            # sends into rows: the on-disk vocabulary (and schema
            # version) is independent of batching.
            for send in event.expanded():
                self._fh.write(json.dumps(_send_to_json(send)) + "\n")
                self.count += 1
            return
        if topic == "plane-stats":
            # Process-local engine counters; not part of the wire
            # vocabulary (Metrics.summary() reports them instead).
            return
        self._fh.write(json.dumps(event_to_json(event)) + "\n")
        self.count += 1

    def close(self) -> None:
        """Detach from the bus; flush (and close an owned file)."""
        self._bus.unsubscribe(self)
        if self._owns_fh:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def numbered_docs(source) -> Iterator[tuple[int, dict]]:
    """``(1-based line number, event dict)`` for each non-blank line."""
    if isinstance(source, (str, pathlib.Path)):
        # Line by line: a recorded n=200 run is half a gigabyte.
        with open(source, encoding="utf-8") as lines:
            yield from numbered_docs(lines)
        return
    for number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:
            problem = getattr(exc, "msg", exc)
            raise EventStreamError(number, f"not JSON ({problem})") from None
        if not isinstance(doc, dict):
            raise EventStreamError(
                number, f"expected a JSON object, got {type(doc).__name__}"
            )
        if not isinstance(doc.get("topic"), str):
            raise EventStreamError(number, "no 'topic' string")
        if doc["topic"] == "schema":
            version = doc.get("v", 0)
            if not isinstance(version, int) or version > SCHEMA_VERSION:
                raise EventStreamError(
                    number,
                    f"schema v{version!r}; this reader understands up "
                    f"to v{SCHEMA_VERSION}",
                )
        yield number, doc


def read_jsonl(source) -> Iterator[dict]:
    """Iterate the event dicts of a JSONL stream (header included).

    *source* is a path or an iterable of lines.  Raises
    :class:`~repro.errors.EventStreamError` naming the line for
    malformed JSON, a line that is not an object or has no ``topic``,
    and a schema version newer than this reader understands.
    """
    for _number, doc in numbered_docs(source):
        yield doc


def event_from_json(number: int, doc: dict) -> Any:
    """Rehydrate line *number* of a stream (say a ``protocol``,
    ``run-start`` or ``run-end`` line) as its event.

    Payload values inside come back as their JSONL rendering — enough
    for timelines, verdicts and stream diffing.  A line that does not
    fit its event (a ``protocol`` line without ``round``, ``node`` or
    ``event``, a ``detail`` that is not an object, a missing or unknown
    field) raises :class:`~repro.errors.EventStreamError`.
    """
    topic = doc["topic"]
    if topic == ProtocolEvent.topic:
        missing = [k for k in ("round", "node", "event") if k not in doc]
        if missing:
            raise EventStreamError(
                number, f"protocol event lacks {', '.join(missing)}"
            )
        detail = doc.get("detail", {})
        if not isinstance(detail, dict):
            raise EventStreamError(number, "protocol detail is not an object")
        return ProtocolEvent(
            doc["round"], doc["node"], doc["event"], dict(detail)
        )
    values = {key: value for key, value in doc.items() if key != "topic"}
    try:
        return EVENT_TYPES[topic](**values)
    except (KeyError, TypeError) as exc:
        raise EventStreamError(number, f"{topic} line: {exc}") from None


def load_protocol_events(source) -> list[ProtocolEvent]:
    """Rehydrate the semantic (``protocol``) events of a stream
    (:func:`event_from_json` says how)."""
    return [
        event_from_json(number, doc)
        for number, doc in numbered_docs(source)
        if doc["topic"] == ProtocolEvent.topic
    ]
