"""Committee capture: two committed reproducers of the sampled variant.

The base spec is ``consensus``, ``variant: sampled``, n=200, f=66,
``splitter``, rushing, ``max_rounds`` 120; ``repro campaign --scenario
BASE --runs 12 --campaign-seed 0 --artifacts DIR`` writes both files
(runs 9 and 0).  ``n > 3f`` holds, yet each run breaks a property,
because the sampled committee holds ``3·f_C ≥ c`` Byzantine members:
the committee's own consensus run is outside its resiliency bound.
The full variant on the same seeds is clean.
"""

import dataclasses
import pathlib

import pytest

from repro.cli import main
from repro.core.committee import sample_committee
from repro.scenario import RunSpec
from repro.scenario.build import predict_population

DATA = pathlib.Path(__file__).resolve().parent.parent / "data" / "violations"

#: file -> (monitor, the start of its verdict).
CAPTURES = {
    "sampled-capture-agreement.json": (
        "agreement",
        "agreement broken in round 21: node 513677 decided 1"
        " but node 3743 decided 0",
    ),
    "sampled-capture-termination.json": (
        "termination",
        "liveness: round limit 120 exceeded",
    ),
}


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_captured_committee_replays_its_violation(name, tmp_path, capsys):
    path = DATA / name
    monitor, verdict = CAPTURES[name]
    assert main(["run", "--scenario", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"{monitor}: {verdict}") for line in lines)

    spec = RunSpec.load(path)
    full = dataclasses.replace(spec, variant="full").save(tmp_path / "f.json")
    assert main(["run", "--scenario", str(full)]) == 0

    correct, byzantine = predict_population(spec)
    committee = sample_committee(
        set(correct) | set(byzantine), seed=spec.seed
    )
    assert 3 * len(committee & set(byzantine)) >= len(committee)
