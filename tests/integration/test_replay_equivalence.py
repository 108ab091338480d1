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

