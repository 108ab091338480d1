"""Schema-versioned JSONL rendering of the event stream.

One JSON object per line; the first line is a schema header::

    {"topic": "schema", "v": 1, "format": "repro.obs"}
    {"topic": "round-start", "round": 1}
    {"topic": "send", "round": 1, "sender": 42, "kind": "echo", ...}
    {"topic": "protocol", "round": 7, "node": 42, "event": "decide", ...}

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
from repro.obs.events import SCHEMA_VERSION, ProtocolEvent

__all__ = [
    "JsonlSink",
    "event_to_json",
    "load_protocol_events",
    "read_jsonl",
]

_JSON_NATIVE = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    """JSON-native passthrough; everything else degrades to ``repr``."""
    if isinstance(value, _JSON_NATIVE):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return repr(value)


def _message_to_json(message: Any) -> dict:
    """Render one delivered message (sim Message or asyncsim
    AsyncMessage) without importing either type."""
    return {
        "from": _jsonable(message.sender),
        "kind": message.kind,
        "payload": _jsonable(message.payload),
        "instance": _jsonable(getattr(message, "instance", None)),
    }


def _send_to_json(send: Any) -> dict:
    """One logical send (a single-send ``send`` row) as its line: one
    ``payload``, a ``dest`` only when direct, its frame size and its
    staged flag."""
    doc: dict[str, Any] = {
        "topic": send.topic,
        "round": _jsonable(send.round),
        "sender": _jsonable(send.sender),
        "kind": _jsonable(send.kind),
        "payload": _jsonable(send.payload),
        "instance": _jsonable(send.instance),
    }
    if send.dests is not None:
        doc["dest"] = _jsonable(send.dest)
    doc["wire_bytes"] = sum(send.wire_bytes)
    doc["staged"] = bool(send.staged)
    if send.time is not None:
        doc["time"] = _jsonable(send.time)
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
            doc[field.name] = _jsonable(value)
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
        if topic in ("plane-stats", "decision-economy"):
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


def _numbered_docs(source) -> Iterator[tuple[int, dict]]:
    """``(1-based line number, event dict)`` for each non-blank line."""
    lines: Iterable[str]
    if isinstance(source, (str, pathlib.Path)):
        lines = pathlib.Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source
    for number, line in enumerate(lines, start=1):
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
    for _number, doc in _numbered_docs(source):
        yield doc


def load_protocol_events(source) -> list[ProtocolEvent]:
    """Rehydrate the semantic (``protocol``) events of a stream.

    Payload values inside ``detail`` come back as their JSONL rendering
    (JSON-native values intact, everything else as ``repr`` strings) —
    enough for timelines, monitors, and stream diffing.  A ``protocol``
    line without ``round``, ``node`` or ``event``, or with a ``detail``
    that is not an object, raises :class:`~repro.errors.EventStreamError`.
    """
    events: list[ProtocolEvent] = []
    for number, doc in _numbered_docs(source):
        if doc["topic"] != ProtocolEvent.topic:
            continue
        missing = [k for k in ("round", "node", "event") if k not in doc]
        if missing:
            raise EventStreamError(
                number, f"protocol event lacks {', '.join(missing)}"
            )
        detail = doc.get("detail", {})
        if not isinstance(detail, dict):
            raise EventStreamError(number, "protocol detail is not an object")
        events.append(
            ProtocolEvent(doc["round"], doc["node"], doc["event"], dict(detail))
        )
    return events
