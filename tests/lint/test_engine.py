"""Engine mechanics: layers, suppressions, output formats."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.engine import layer_of
from repro.lint.rules import all_rules, rules_by_code

VIOLATION = """\
import random
"""


class TestLayerMapping:
    def test_repro_segment_wins(self):
        layer = layer_of(Path("src/repro/core/rotor.py"))
        assert layer == ("core", "rotor.py")

    def test_mimicked_tree(self, tmp_path):
        path = tmp_path / "repro" / "baselines" / "x.py"
        assert layer_of(path) == ("baselines", "x.py")

    def test_known_layer_fallback_without_repro(self):
        assert layer_of(Path("somewhere/core/x.py")) == ("core", "x.py")

    def test_bare_file_has_no_layer(self):
        assert layer_of(Path("script.py")) == ("script.py",)


class TestRegistry:
    def test_codes_are_unique_and_stable(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert len(codes) == len(set(codes))
        assert {"R101", "R201", "R301", "R401"} <= set(codes)

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.name, rule.code
            assert rule.description, rule.code

    def test_rules_by_code(self):
        assert rules_by_code()["R301"].name == "direct-random-import"


class TestSuppressions:
    def test_same_line_directive(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/x.py": (
                    "import random"
                    "  # repro-lint: disable=R301 -- test fixture\n"
                )
            }
        )
        assert result.ok
        assert result.summary.suppressed == 1

    def test_own_line_directive_guards_next_line(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/x.py": """\
                # repro-lint: disable=R301 -- test fixture
                import random
                """
            }
        )
        assert result.ok
        assert result.summary.suppressed == 1

    def test_own_line_directive_does_not_leak_further(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/x.py": """\
                # repro-lint: disable=R301 -- test fixture
                import os
                import random
                """
            }
        )
        assert [d.code for d in result.diagnostics] == ["R301"]

    def test_wrong_code_does_not_suppress(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/x.py": (
                    "import random  # repro-lint: disable=R999\n"
                )
            }
        )
        assert [d.code for d in result.diagnostics] == ["R301"]

    def test_file_scoped_with_reason(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/x.py": """\
                # repro-lint: disable-file=R301 -- fixture justification
                import random

                import random as r2  # noqa: the directive covers this too
                """
            }
        )
        assert result.ok
        assert result.summary.suppressed == 2

    def test_unjustified_file_directive_reported(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/x.py": """\
                # repro-lint: disable-file=R301
                import random
                """
            }
        )
        assert [d.code for d in result.diagnostics] == ["R001"]


class TestCli:
    def test_clean_tree_exits_zero(self, lint_cli, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        good = tmp_path / "repro" / "core" / "good.py"
        good.write_text("x = 3 * 2 >= 4\n", encoding="utf-8")
        proc = lint_cli(tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_violation_exits_one_with_location(self, lint_cli, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\nimport random\n", encoding="utf-8")
        proc = lint_cli(tmp_path)
        assert proc.returncode == 1
        assert "bad.py:2:1: R301" in proc.stdout

    def test_json_format(self, lint_cli, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n", encoding="utf-8")
        proc = lint_cli(tmp_path, "--format=json")
        payload = json.loads(proc.stdout)
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["code"] == "R301"
        assert payload["findings"][0]["line"] == 1

    def test_syntax_error_is_reported(self, lint_cli, tmp_path):
        bad = tmp_path / "oops.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        proc = lint_cli(bad)
        assert proc.returncode == 1
        assert "E001" in proc.stdout

    def test_non_utf8_file_is_reported(self, lint_cli, tmp_path):
        bad = tmp_path / "latin1.py"
        bad.write_bytes(b"name = '\xe9t\xe9'\n")
        proc = lint_cli(bad)
        assert proc.returncode == 1
        assert "latin1.py:1:1: E001" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_unknown_path_is_usage_error(self, lint_cli, tmp_path):
        proc = lint_cli(tmp_path / "missing")
        assert proc.returncode == 2

    def test_list_rules(self, lint_cli):
        proc = lint_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("R101", "R203", "R403", "R701"):
            assert code in proc.stdout

    def test_select_subset(self, lint_cli, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n", encoding="utf-8")
        proc = lint_cli(tmp_path, "--select=R302")
        assert proc.returncode == 0  # R301 not selected

    def test_unknown_select_code_is_usage_error(
        self, lint_cli, capsys, tmp_path
    ):
        proc = lint_cli("--select=R301,R603", tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error: unknown rule code(s): R603" in proc.stderr
        # The main CLI forwards the same exit code.
        from repro.cli import main

        assert main(["lint", "--select=R999", str(tmp_path)]) == 2
        assert "error: unknown rule code(s): R999" in capsys.readouterr().err
