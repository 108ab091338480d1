"""Complexity guard: per-node state of an all-correct run is O(1) in n.

The boundary invariant (DESIGN.md §4): what the round's shared plane
derived once is held, and handed to the engine, as that one object — so
doubling n must not grow what a finished run keeps alive *per node*.
Measured with tracemalloc as live bytes after ``run_spec`` returns
(result held), a count that repeats exactly for a seed; no timings.

Before the invariant held, the ratio at 2n / n read 1.25 for
``consensus`` full and ``trb`` (one private echo tuple per node per
round, pinned by the engine) and 1.12 for ``parallel`` sampled (one
private announcer set per node); now 0.88–1.01 on all six.  ``parallel``
full (4 052 → 4 071 B/node for n = 200 → 400 before its instance
sub-inboxes became row views of the round's columns) is guarded too.
"""

import gc
import tracemalloc

import pytest

from repro.scenario import RunSpec, run_spec
from repro.scenario.registry import PROTOCOLS

#: (spec fields, n): guarded at n -> 2n.
FLAT = {
    "consensus-full": ({"protocol": "consensus"}, 200),
    "consensus-sampled": (
        {"protocol": "consensus", "variant": "sampled"},
        600,
    ),
    "parallel-sampled": (
        {"protocol": "parallel", "variant": "sampled"},
        300,
    ),
    "trb": ({"protocol": "trb"}, 200),
    "reliable-broadcast": (
        {"protocol": "reliable-broadcast", "max_rounds": 8},
        200,
    ),
    "approx": ({"protocol": "approx"}, 200),
    "parallel-full": ({"protocol": "parallel"}, 200),
}

#: Not guarded, with the reason: their per-node state is semantically
#: O(n).
EXEMPT = {
    "renaming": "every node outputs all n names",
    "interactive-consistency": "one consensus instance per node, n "
    "instances held by each",
    "total-order": "a finality window of instances per node",
}

#: Sampled variants: a committee barely grows with n, so per-node state
#: also has an absolute ceiling at 2n (``consensus`` n=1200 and
#: ``parallel`` n=600: 10.9 and 9.5 KiB before the invariant, 3.9 and
#: 3.5 after).
SAMPLED_CEILING_KIB = 6.0


def live_bytes_per_node(n: int, fields: dict) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        result = run_spec(RunSpec(n=n, f=0, seed=7, **fields))
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.correct_ids) == n
    return live / n


@pytest.mark.parametrize("name", sorted(FLAT))
def test_doubling_n_keeps_per_node_state(name):
    fields, n = FLAT[name]
    small = live_bytes_per_node(n, fields)
    large = live_bytes_per_node(2 * n, fields)
    assert large <= 1.10 * small, (name, small, large)
    if fields.get("variant") == "sampled":
        assert large <= SAMPLED_CEILING_KIB * 1024, (name, large)


def test_exemptions_name_real_protocols():
    for name in EXEMPT:
        assert name.removesuffix("-full") in PROTOCOLS
