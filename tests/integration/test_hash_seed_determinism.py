"""A run is a pure function of its spec, whatever the hash seed.

Python salts ``str`` hashing per process (``PYTHONHASHSEED``), so a set
or dict of strings whose iteration order leaks into what a node sends or
emits makes two processes that run the same spec disagree.  This test
runs every registered protocol, plus each committee-sampled variant,
under an equivocating rushing adversary in two subprocesses with
different hash seeds, and compares the sha256 of each run's
``--events`` stream.

``python -m tests.integration.test_hash_seed_determinism`` prints the
digests, one line per spec.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.scenario import RunSpec
from repro.scenario.registry import PROTOCOLS, SAMPLED_PROTOCOLS

REPO_ROOT = Path(__file__).resolve().parents[2]
MODULE = "tests.integration.test_hash_seed_determinism"
HASH_SEEDS = ("0", "1")
BUDGET_SECONDS = 10.0


def specs() -> list[RunSpec]:
    """Every protocol, then every sampled variant: n=10, f=3, seed 3.

    Every halting protocol halts well inside 60 rounds, and total-order
    submits its last scheduled event before round 60.
    """
    common = dict(
        n=10,
        f=3,
        adversary="equivocator",
        rushing=True,
        seed=3,
        max_rounds=60,
    )
    return [RunSpec(protocol=name, **common) for name in PROTOCOLS] + [
        RunSpec(protocol=name, variant="sampled", **common)
        for name in SAMPLED_PROTOCOLS
    ]


def digests() -> list[str]:
    """One ``<protocol>/<variant> <sha256 of the event stream>`` line
    per spec."""
    from tests.replay_scenarios import stream

    return [
        f"{spec.protocol}/{spec.variant} "
        f"{hashlib.sha256(stream(spec).encode('utf-8')).hexdigest()}"
        for spec in specs()
    ]


def test_event_streams_do_not_depend_on_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    start = time.perf_counter()
    # Both hash seeds run at once; each process runs every spec.
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", MODULE],
            cwd=REPO_ROOT,
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    elapsed = time.perf_counter() - start
    for proc, (stdout, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr[-2000:]
    runs = [stdout.splitlines() for stdout, _ in outputs]
    assert len(runs[0]) == len(specs())
    diverged = [
        line.split()[0] for line, other in zip(*runs) if line != other
    ]
    assert not diverged, (
        f"event streams depend on PYTHONHASHSEED for: {', '.join(diverged)}"
    )
    assert elapsed < BUDGET_SECONDS, (
        f"hash-seed determinism check took {elapsed:.2f}s "
        f"(budget {BUDGET_SECONDS}s)"
    )


if __name__ == "__main__":
    print("\n".join(digests()))
