"""Replay-equivalence safety net for the round engine.

Each ``tests/data/replay_*.jsonl`` is the ``--events`` stream of one of
four representative scenarios — reliable broadcast, rotor, consensus,
and parallel consensus, each under a rushing adversary.  Re-running the
spec must reproduce the stream line for line: every send, delivery (in
delivery order), protocol event and round boundary.

The streams descend from recordings the pre-rewrite (send-time
recipient, per-recipient staging) engine made in an older delivery-only
format.  Projected onto that format, the streams carry the same seed,
round count, outputs and multiset of deliveries, up to how ``⊥``
renders (DESIGN.md §4).
"""

import json

import pytest

from repro.obs import read_jsonl

from tests.replay_scenarios import (
    SPECS,
    first_divergence,
    recording_path,
    stream,
)


def recorded(name):
    return recording_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_engine_reproduces_pre_rewrite_recording(name):
    expected = recorded(name)
    fresh = stream(SPECS[name])
    assert fresh == expected, first_divergence(fresh, expected)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_recordings_have_no_duplicate_delivery_records(name):
    # One message per (round, recipient, stamped message): the engine
    # hands each recipient a deduplicated inbox.
    delivers = [
        doc for doc in read_jsonl(recording_path(name))
        if doc["topic"] == "deliver"
    ]
    assert delivers, f"no deliveries recorded for {name}"
    for doc in delivers:
        keys = [json.dumps(m, sort_keys=True) for m in doc["messages"]]
        assert len(keys) == doc["count"]
        assert len(set(keys)) == len(keys), doc



#: name -> sha256 of the schema v1 recording without its header and
#: ``run-start`` lines (the two lines v2 rewrites).
V1_BODY_SHA256 = {
    "consensus": (
        "8d4f12ca5f7241a41ac71167814b9348632b3da4d6fe7643359bf3496607f2b6"
    ),
    "parallel_consensus": (
        "4497b8967be0d2ba0bde0704b0935b0301838e291f03abb736079146205700b4"
    ),
    "reliable_broadcast": (
        "33f0e966de6492d1d79c25967458e5d12a593c58a90b93079d141570fccc469a"
    ),
    "rotor": (
        "a7bec7b6cb13222dc40cee3b724cdf3859b33283b607a63549e7332eb4ec728d"
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_v2_recording_differs_from_v1_in_header_run_start_and_run_end(name):
    # Schema v2 re-recorded the streams: the header, a run-start that
    # now names the spec and the population, and one closing run-end.
    # Every line between them is the v1 recording's, byte for byte.
    import hashlib

    lines = recorded(name).splitlines()
    assert json.loads(lines[0]) == {
        "topic": "schema", "v": 2, "format": "repro.obs",
    }
    start = json.loads(lines[1])
    spec = SPECS[name]
    assert start == {
        "topic": "run-start",
        "runtime": "sim",
        "seed": spec.seed,
        "spec": spec.to_json_dict(),
        "correct": start["correct"],
        "byzantine": start["byzantine"],
    }
    assert (len(start["correct"]), len(start["byzantine"])) == (
        spec.n - spec.f, spec.f,
    )
    end = json.loads(lines[-1])
    assert end["topic"] == "run-end" and "error" not in end
    body = "\n".join(lines[2:-1]) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == V1_BODY_SHA256[name]
