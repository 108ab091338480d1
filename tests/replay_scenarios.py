"""Representative scenarios pinned by committed event streams.

These four runs — reliable broadcast, rotor, consensus, and parallel
consensus, each under a rushing adversary — are the round engine's
refactor safety net.  Each ``tests/data/replay_<name>.jsonl`` is exactly
the ``repro run --scenario SPEC --events FILE`` output of its spec, and
``tests/integration/test_replay_equivalence.py`` re-runs the spec and
compares the two streams line for line: any engine change that alters a
single send, delivery (or its order), protocol event, or round count in
any of them names the first diverging line.

Each scenario is a declarative :class:`~repro.scenario.RunSpec`
materialized through :mod:`repro.scenario` — the same construction path
as the CLI, benchmarks, and campaign runner — so the streams pin the
scenario layer's wiring (id assignment, input resolution, adversary
wrapping) along with the engine.

Regenerate after an *intentional* wire-behaviour change with::

    PYTHONPATH=src python -m tests.replay_scenarios

and document the change in DESIGN.md.
"""

from __future__ import annotations

import io
import pathlib

from repro.obs import EventBus
from repro.scenario import RunSpec, run_spec

DATA_DIR = pathlib.Path(__file__).parent / "data"


#: name -> the RunSpec behind each committed stream.
SPECS = {
    "reliable_broadcast": RunSpec(
        protocol="reliable-broadcast",
        n=8,
        f=2,
        protocol_params={"payload": "m"},
        adversary="membership-liar",
        seed=11,
        rushing=True,
        max_rounds=8,
    ),
    "rotor": RunSpec(
        protocol="rotor",
        n=8,
        f=2,
        adversary="equivocator",
        adversary_params={"wrapped_index": -1},
        seed=6,
        rushing=True,
        max_rounds=50,
    ),
    "consensus": RunSpec(
        protocol="consensus",
        n=6,
        f=1,
        adversary="splitter",
        seed=5,
        rushing=True,
        max_rounds=100,
    ),
    "parallel_consensus": RunSpec(
        protocol="parallel",
        n=8,
        f=2,
        adversary="splitter",
        seed=7,
        rushing=True,
        max_rounds=80,
    ),
}


def recording_path(name: str) -> pathlib.Path:
    return DATA_DIR / f"replay_{name}.jsonl"


def stream(spec: RunSpec) -> str:
    """The ``--events`` JSONL stream of one run of *spec*.

    The same path ``repro run --events`` takes: a JSONL sink on the
    run's event bus, attached before the run starts.
    """
    bus = EventBus()
    buffer = io.StringIO()
    sink = bus.to_jsonl(buffer)
    try:
        run_spec(spec, bus=bus)
    finally:
        sink.close()
    return buffer.getvalue()


def first_divergence(fresh: str, recorded: str) -> str | None:
    """Where two streams first differ (1-based line), or ``None``."""
    fresh_lines = fresh.splitlines()
    recorded_lines = recorded.splitlines()
    for number, (new, old) in enumerate(
        zip(fresh_lines, recorded_lines), start=1
    ):
        if new != old:
            return (
                f"line {number} differs:\n"
                f"  fresh:    {new}\n"
                f"  recorded: {old}"
            )
    if len(fresh_lines) != len(recorded_lines):
        return (
            f"fresh stream has {len(fresh_lines)} lines, "
            f"recorded stream has {len(recorded_lines)}"
        )
    return None


def regenerate() -> None:
    for name, spec in SPECS.items():
        text = stream(spec)
        recording_path(name).write_text(text, encoding="utf-8")
        print(
            f"{name}: {len(text.splitlines())} lines -> "
            f"{recording_path(name)}"
        )


if __name__ == "__main__":
    regenerate()
