"""Golden-recording regression tests.

``tests/data/replay_consensus.jsonl`` pins every send, delivery (in
delivery order), protocol event and round boundary of a reference
consensus run.  Here that run is built by hand as a :class:`Scenario`
and driven through :func:`run_scenario` directly, not through
:mod:`repro.scenario`, so a change to the round engine that alters any
wire behaviour names the first diverging line even if the scenario
layer's wiring changed with it.  Built by hand, the run has no spec to
name on its ``run-start`` line; every other line must match.
Intentional behaviour changes regenerate the stream (see
:mod:`tests.replay_scenarios`) and document themselves in DESIGN.md.
"""

import io
import json

from repro.adversary import QuorumSplitterStrategy
from repro.core.consensus import EarlyConsensus
from repro.obs import EventBus, read_jsonl
from repro.sim.runner import Scenario, run_scenario

from tests.replay_scenarios import first_divergence, recording_path


def golden_scenario():
    return Scenario(
        correct=5,
        byzantine=1,
        protocol_factory=lambda nid, i: EarlyConsensus(i % 2),
        strategy_factory=lambda nid, i: QuorumSplitterStrategy(
            EarlyConsensus(0)
        ),
        seed=5,
        rushing=True,
        max_rounds=100,
    )


class TestGoldenConsensus:
    def test_current_code_reproduces_the_golden_run(self):
        bus = EventBus()
        buffer = io.StringIO()
        sink = bus.to_jsonl(buffer)
        try:
            run_scenario(golden_scenario(), bus=bus)
        finally:
            sink.close()
        fresh = buffer.getvalue().splitlines()
        golden = recording_path("consensus").read_text(encoding="utf-8")
        golden = golden.splitlines()
        # A hand-built run names no spec on its run-start; every other
        # line is the spec-built recording's, byte for byte.
        start = json.loads(golden[1])
        del start["spec"]
        assert fresh[1] == json.dumps(start)
        fresh[1] = golden[1]
        assert fresh == golden, first_divergence(
            "\n".join(fresh), "\n".join(golden)
        )

    def test_golden_run_has_expected_shape(self):
        docs = list(read_jsonl(recording_path("consensus")))
        rounds = [doc["round"] for doc in docs if doc["topic"] == "round-end"]
        assert rounds[-1] == 12  # 2 init + 2 phases
        decides = [
            doc for doc in docs
            if doc["topic"] == "protocol" and doc["event"] == "decide"
        ]
        assert len(decides) == 5
        assert len({json.dumps(doc["detail"]["value"]) for doc in decides}) == 1
        delivered = [doc["count"] for doc in docs if doc["topic"] == "deliver"]
        assert sum(delivered) == 642
