"""The five workloads: each a base RunSpec document plus its op budget.

One *op* is what a campaign worker does with one spec document:
``evaluate_spec(RunSpec.from_json_dict(doc))``.  Op ``i`` of a run with
benchmark seed ``S`` is the base document under ``derive_seed(S, i)`` —
derived seeds are what campaigns actually send, and repeating one seed
inside a process measures an artefact (see README, "same-seed note").
Op 0 is the untimed warm-up and the spec the cold CLI runs replay.

``BENCHMARK.json`` records, per workload, the regime it covers and why
it exists; README.md has the measured layer split of each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.analysis.campaign import derive_seed


@dataclass(frozen=True)
class Workload:
    """A named base spec and how much of it one run measures."""

    name: str
    #: RunSpec fields (everything but the derived seed).
    spec: Mapping[str, Any]
    #: Timed ops every untraced run executes at least; the first
    #: ``min_ops`` ops define ``sends_total`` so the count repeats
    #: exactly for a seed however long the time box lets the loop run.
    min_ops: int
    #: Field overrides for ``--quick`` (seconds, not minutes).
    quick: Mapping[str, Any]
    #: Specs in the ``analysis.pool`` campaign measurement.
    pool_runs: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="consensus-large",
            spec={
                "protocol": "consensus",
                "n": 1500,
                "f": 0,
                "inputs": "alternating",
            },
            min_ops=40,
            quick={"n": 60},
            pool_runs=8,
        ),
        Workload(
            name="ic-instances",
            spec={"protocol": "interactive-consistency", "n": 60, "f": 0},
            min_ops=40,
            quick={"n": 12},
            pool_runs=8,
        ),
        Workload(
            name="byz-equivocator",
            spec={
                "protocol": "consensus",
                "n": 37,
                "f": 12,
                "adversary": "equivocator",
                "rushing": True,
            },
            min_ops=40,
            quick={"n": 13, "f": 4},
            pool_runs=8,
        ),
        Workload(
            name="churn-campaign",
            spec={
                "protocol": "total-order",
                "n": 9,
                "f": 2,
                "adversary": "silent",
                "churn": {
                    "kind": "rate",
                    "params": {"start": 10, "stop": 30},
                },
                "protocol_params": {"event_last": 26, "event_every": 4},
                "max_rounds": 48,
            },
            min_ops=150,
            quick={},
            pool_runs=40,
        ),
        Workload(
            name="sampled-large",
            spec={
                "protocol": "consensus",
                "variant": "sampled",
                "n": 2500,
                "f": 0,
                "inputs": "supermajority",
            },
            min_ops=40,
            quick={"n": 200},
            pool_runs=8,
        ),
    )
}


def spec_doc(
    workload: Workload,
    seed: int,
    index: int,
    *,
    quick: bool = False,
    max_rounds: int | None = None,
) -> dict[str, Any]:
    """Op *index*'s spec document, as a campaign worker receives it.

    The JSON round-trip is deliberate: a worker's payload crossed a
    pickle/JSON boundary, so nothing here may rely on object identity.
    ``max_rounds`` overrides the budget (the self-check uses it to force
    a failing verdict).
    """
    doc = dict(workload.spec)
    if quick:
        doc.update(workload.quick)
    if max_rounds is not None:
        doc["max_rounds"] = max_rounds
    doc["seed"] = derive_seed(seed, index)
    return json.loads(json.dumps(doc))
