"""The committed experiment tables are the grids' renderings.

Every ``benchmarks/specs/<table>.json`` is rendered in memory and must
equal the committed ``benchmarks/results/<table>.md`` byte for byte,
with every derived claim held: each point inside ``n > 3f`` holds every
verdict on every seed, each point outside shows a violation.  The
verdicts the tables claim come from ``judge``; each one added for them
is pinned below on an in-model spec.
"""

from __future__ import annotations

import json

import pytest

from benchmarks._harness import RESULTS_DIR
from benchmarks.grid import SPECS_DIR, main
from repro.analysis import verdicts as stream_verdicts
from repro.analysis.campaign import evaluate_spec
from repro.analysis.grid import load, measure
from repro.analysis.report import format_table
from repro.errors import ConfigurationError
from repro.scenario import RunSpec

GRIDS = sorted(path.stem for path in SPECS_DIR.glob("*.json"))


@pytest.mark.parametrize("name", GRIDS)
def test_grid_renders_its_committed_table(name):
    grid = load(SPECS_DIR / f"{name}.json")
    rows, columns, broken = measure(grid)
    assert broken == []
    rendered = format_table(rows, columns=columns, title=grid.title)
    assert rendered == (RESULTS_DIR / f"{name}.md").read_text()


def test_grids_are_committed():
    # An empty glob would leave the parametrized test above with no case.
    assert GRIDS


class TestMalformedGrid:
    def _grid(self, tmp_path, **doc):
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

    def test_ill_typed_point_names_the_point(self, tmp_path):
        path = self._grid(tmp_path, points=[{"f": 1}, {"rushing": "yes"}])
        with pytest.raises(ConfigurationError, match="point 1: .*rushing"):
            load(path)

    def test_point_outside_the_base_is_refused(self, tmp_path):
        path = self._grid(tmp_path, points=[{"churn.params.count": 2}])
        with pytest.raises(ConfigurationError, match="point 0"):
            load(path)

    def test_unknown_grid_key_is_refused(self, tmp_path):
        path = self._grid(tmp_path, columns=["n"])
        with pytest.raises(ConfigurationError, match="exactly the keys"):
            load(path)

    def test_unknown_grid_exits_2_naming_its_file(self, capsys):
        assert main(["no-such-grid"]) == 2
        assert "no-such-grid.json" in capsys.readouterr().err


def _verdicts(**fields) -> dict:
    return evaluate_spec(RunSpec(**fields, rushing=True))["verdicts"]


class TestJudgeVerdicts:
    def test_reliable_broadcast(self):
        verdicts = _verdicts(
            protocol="reliable-broadcast",
            n=7,
            f=2,
            adversary="echo-forger",
            protocol_params={"payload": "m"},
            max_rounds=8,
        )
        assert "reliable-broadcast" in verdicts
        assert verdicts["reliable-broadcast"] is None

    def test_rotor_good_round(self):
        verdicts = _verdicts(protocol="rotor", n=7, f=2, adversary="usurper")
        assert "good-round" in verdicts
        assert verdicts["good-round"] is None
        # Theorem 6.3 promises a good round, not agreement on the last
        # accepted opinion (a Byzantine last coordinator may split it).
        assert "agreement" not in verdicts

    def test_trb_validity(self):
        verdicts = _verdicts(
            protocol="trb", n=7, f=2, protocol_params={"payload": "m"}
        )
        assert "validity" in verdicts
        assert verdicts["validity"] is None

    def test_interactive_consistency_validity(self):
        verdicts = _verdicts(
            protocol="interactive-consistency",
            n=7,
            f=2,
            adversary="adaptive",
        )
        assert "validity" in verdicts
        assert verdicts["validity"] is None

    def test_interactive_consistency_validity_sees_a_wrong_entry(
        self, monkeypatch
    ):
        honest = stream_verdicts._inputs
        monkeypatch.setattr(
            stream_verdicts,
            "_inputs",
            lambda spec, correct: [None] + honest(spec, correct)[1:],
        )
        verdicts = _verdicts(protocol="interactive-consistency", n=4, f=1)
        assert "whose input is None" in verdicts["validity"]
