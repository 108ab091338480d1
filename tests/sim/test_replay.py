"""Replay: a recorded ``--events`` stream is a reproducible witness.

A re-run of the same spec reproduces the stream line for line, and any
difference — another seed, a tampered decision or delivery, a cut-off
stream — is named by :func:`first_divergence`.
"""

import json
from dataclasses import replace

from tests.replay_scenarios import (
    SPECS,
    first_divergence,
    recording_path,
    stream,
)


def recorded():
    return recording_path("consensus").read_text(encoding="utf-8")


def tamper_first(text, matches, edit):
    """*text* with its first line whose doc *matches* rewritten by *edit*.

    Returns the 1-based number of that line and the tampered text.
    """
    lines = text.splitlines(keepends=True)
    for index, line in enumerate(lines):
        doc = json.loads(line)
        if matches(doc):
            edit(doc)
            lines[index] = json.dumps(doc) + "\n"
            return index + 1, "".join(lines)
    raise AssertionError("no line to tamper with")


def is_decide(doc):
    return doc["topic"] == "protocol" and doc["event"] == "decide"


def is_deliver(doc):
    return doc["topic"] == "deliver"


class TestVerifyReplay:
    def test_identical_replay_has_no_differences(self):
        spec = SPECS["consensus"]
        assert first_divergence(stream(spec), stream(spec)) is None

    def test_different_seed_detected(self):
        fresh = stream(replace(SPECS["consensus"], seed=6))
        found = first_divergence(fresh, recorded())
        assert found is not None and found.startswith("line ")

    def test_tampered_output_detected(self):
        def edit(doc):
            doc["detail"]["value"] = "tampered"

        number, text = tamper_first(recorded(), is_decide, edit)
        found = first_divergence(recorded(), text)
        assert found.startswith(f"line {number} differs")
        assert '"tampered"' in found

    def test_tampered_delivery_detected(self):
        def edit(doc):
            doc["messages"][0] = {
                "from": 999, "kind": "ghost", "payload": None, "instance": None,
            }

        number, text = tamper_first(recorded(), is_deliver, edit)
        found = first_divergence(recorded(), text)
        assert found.startswith(f"line {number} differs")
        assert '"ghost"' in found

    def test_truncated_stream_reports_its_length(self):
        text = recorded()
        truncated = "".join(text.splitlines(keepends=True)[:200])
        assert first_divergence(text, truncated) == (
            "fresh stream has 255 lines, recorded stream has 200"
        )
