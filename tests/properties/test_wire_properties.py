"""Property-based fuzzing of the wire codec."""

import json

from hypothesis import given, strategies as st

from repro.errors import WireError
from repro.net.wire import (
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.types import BOTTOM

# Hashable payloads of the shape protocols actually send: scalars,
# strings, BOTTOM, and nested tuples thereof.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.just(BOTTOM),
)
payloads = st.recursive(
    scalars,
    lambda children: st.tuples(children, children)
    | st.tuples(children)
    | st.tuples(children, children, children),
    max_leaves=8,
)


#: Arbitrary JSON, leaning on the codec's tag names.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["__tuple__", "__frozenset__", "__bottom__", "a"]),
        children,
        max_size=2,
    ),
    max_leaves=10,
)
#: Frame-shaped objects: any subset of the fields holding any JSON, or
#: the three header fields mostly well typed under arbitrary bodies.
json_objects = st.dictionaries(
    st.sampled_from(["round", "sender", "kind", "payload", "instance"]),
    json_values,
    max_size=5,
) | st.fixed_dictionaries(
    {
        "round": st.integers(0, 10) | json_values,
        "sender": st.integers(0, 10) | json_values,
        "kind": st.text(max_size=4) | json_values,
    },
    optional={"payload": json_values, "instance": json_values},
)


class TestWireProperties:
    @given(value=payloads)
    def test_value_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    @given(value=payloads)
    def test_decoded_values_stay_hashable(self, value):
        decoded = decode_value(encode_value(value))
        hash(decoded)  # must not raise

    @given(
        payload=payloads,
        instance=payloads,
        round_no=st.integers(min_value=0, max_value=10**6),
        sender=st.integers(min_value=0, max_value=10**9),
        kind=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=20,
        ),
    )
    def test_frame_roundtrip(self, payload, instance, round_no, sender, kind):
        frame = encode_frame(round_no, sender, kind, payload, instance)
        parsed = decode_frame(frame[4:])
        assert parsed["round"] == round_no
        assert parsed["sender"] == sender
        assert parsed["kind"] == kind
        assert parsed["payload"] == payload
        assert parsed["instance"] == instance

    @given(junk=st.binary(max_size=64))
    def test_garbage_never_crashes_decoder_unsafely(self, junk):
        """Arbitrary bytes either parse exactly or raise WireError, a
        ValueError — nothing else (the peer closes the connection on
        ValueError)."""
        assert_exact_or_wire_error(junk)

    @given(doc=json_objects)
    def test_arbitrary_json_objects_decode_exactly_or_raise_wire_error(
        self, doc
    ):
        assert_exact_or_wire_error(json.dumps(doc).encode("utf-8"))

    def test_the_malformed_frames_a_peer_once_mishandled(self):
        base = {"round": 1, "sender": 2, "kind": "echo"}
        for patch in (
            {"payload": {"__tuple__": 5}},
            {"round": None},
            {"payload": [1, 2]},
            {"payload": {"a": 1}},
            {"round": 1.9},
            {"sender": True},
            {"kind": 5},
        ):
            body = json.dumps({**base, **patch}).encode("utf-8")
            try:
                decode_frame(body)
            except WireError:
                continue
            raise AssertionError(f"{patch} was accepted")


def assert_exact_or_wire_error(body):
    """``decode_frame`` either returns exactly typed fields or raises
    WireError: never a coerced value, never another exception."""
    try:
        frame = decode_frame(body)
    except WireError:
        return
    assert type(frame["round"]) is int and type(frame["sender"]) is int
    assert type(frame["kind"]) is str
    hash((frame["payload"], frame["instance"]))
