"""Wire format: length-prefixed JSON frames with a faithful value codec.

Protocol payloads are built from literals — numbers, strings, None,
tuples, and the ``⊥`` marker — but JSON alone cannot round-trip tuples
(protocols rely on hashability and equality of what they sent).  The
codec tags non-JSON-native values::

    (1, "a")      ->  {"__tuple__": [1, "a"]}
    BOTTOM        ->  {"__bottom__": true}
    frozenset(..) ->  {"__frozenset__": [...]}

Frames are ``<4-byte big-endian length><utf-8 json>``; the JSON object
carries ``round``, ``sender``, ``kind``, ``payload``, ``instance``.
Decoding is exact: anything but an int ``round`` and ``sender``, a str
``kind`` and a payload and instance that decode to hashable values is a
:class:`~repro.errors.WireError`, never a coerced value or a
``TypeError`` further down.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.errors import ProtocolViolation, WireError
from repro.types import BOTTOM, is_bottom

_LENGTH = struct.Struct(">I")

#: Refuse frames beyond this size (a malformed or malicious peer must
#: not make us allocate unboundedly).
MAX_FRAME_BYTES = 1 << 20


def encode_value(value: Any) -> Any:
    """Make *value* JSON-representable, reversibly."""
    if is_bottom(value):
        return {"__bottom__": True}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {
            "__frozenset__": sorted(
                (encode_value(v) for v in value), key=repr
            )
        }
    if isinstance(value, (list, set)):
        raise ProtocolViolation(
            f"unhashable payload {value!r} cannot go on the wire"
        )
    if isinstance(value, dict):
        raise ProtocolViolation(
            f"dict payload {value!r} is not hashable; send tuples"
        )
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`; raises :class:`WireError` for
    anything :func:`encode_value` cannot have produced (a list, a plain
    object, a malformed tag), so every decoded value is hashable."""
    if isinstance(value, dict):
        if value.get("__bottom__") is True:
            return BOTTOM
        for tag, build in (("__tuple__", tuple), ("__frozenset__", frozenset)):
            if tag in value:
                items = value[tag]
                if not isinstance(items, list):
                    raise WireError(f"{tag} holds {items!r}, not a list")
                return build(decode_value(v) for v in items)
        raise WireError(f"untagged object {value!r} is not hashable")
    if isinstance(value, list):
        raise WireError(f"list {value!r} is not hashable")
    return value


def encode_frame(
    round_no: int,
    sender: int,
    kind: str,
    payload: Any = None,
    instance: Any = None,
) -> bytes:
    """Serialize one message to its wire frame."""
    body = json.dumps(
        {
            "round": round_no,
            "sender": sender,
            "kind": kind,
            "payload": encode_value(payload),
            "instance": encode_value(instance),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolViolation(f"frame too large: {len(body)} bytes")
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> dict:
    """Parse a frame body (without the length prefix) into its fields
    (see the module docstring); raises :class:`WireError` otherwise."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"body is not UTF-8 JSON ({exc})") from None
    if not isinstance(data, dict):
        raise WireError("body is not an object")
    for key, want in (("round", int), ("sender", int), ("kind", str)):
        if key not in data:
            raise WireError(f"missing {key!r}")
        if type(data[key]) is not want:  # bool is not an int here
            raise WireError(f"{key} {data[key]!r} is not {want.__name__}")
    try:
        payload = decode_value(data.get("payload"))
        instance = decode_value(data.get("instance"))
    except RecursionError:
        raise WireError("payload nested too deeply") from None
    return {
        "round": data["round"],
        "sender": data["sender"],
        "kind": data["kind"],
        "payload": payload,
        "instance": instance,
    }


def read_exactly(sock, count: int) -> bytes | None:
    """Read exactly *count* bytes from a socket (None on EOF)."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> dict | None:
    """Read one frame from a socket (None on clean EOF)."""
    header = read_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"length {length} exceeds the frame limit")
    body = read_exactly(sock, length)
    if body is None:
        return None
    return decode_frame(body)
