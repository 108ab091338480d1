"""Tests for :class:`repro.analysis.grid.Grid`'s one validation point.

(The committed grids are pinned in
``tests/integration/test_experiment_grids.py``; the in-memory grids of
``repro sweep`` and ``repro matrix`` in ``tests/test_cli.py``.)
"""

import json

import pytest

from repro.analysis.grid import Grid, load
from repro.errors import ConfigurationError
from repro.scenario import RunSpec

SPEC = RunSpec(protocol="consensus", n=4, f=1)


def _grid_file(tmp_path, **doc):
    grid = {
        "title": "t",
        "base": {"protocol": "consensus", "n": 4},
        "points": [{"f": 1}],
        "seeds": 1,
    }
    grid.update(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(grid))
    return path


@pytest.mark.parametrize(
    "doc, specs, seeds",
    [
        ({"points": []}, (), 1),
        ({"seeds": 0}, (SPEC,), 0),
        ({"seeds": True}, (SPEC,), True),
    ],
)
def test_file_and_memory_grids_are_refused_alike(tmp_path, doc, specs, seeds):
    with pytest.raises(ConfigurationError, match="a grid needs") as file:
        load(_grid_file(tmp_path, **doc))
    with pytest.raises(ConfigurationError) as memory:
        Grid("g", "t", ("f",), specs, seeds)
    assert str(memory.value) == str(file.value)


def test_a_point_that_can_never_run_is_named():
    doomed = RunSpec(protocol="consensus", n=4, f=4)
    with pytest.raises(ConfigurationError, match="point 1: f=4 leaves"):
        Grid("g", "t", ("f",), (SPEC, doomed), 1)
