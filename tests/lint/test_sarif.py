"""SARIF output: schema shape, stability, and the CLI surface."""

from __future__ import annotations

import json

from repro.lint import all_rules, format_sarif
from repro.lint.diagnostics import Diagnostic, Summary


def _diag(**overrides):
    base = dict(
        path="src/repro/core/bad.py",
        line=7,
        col=5,
        code="R101",
        message="membership knowledge enters core",
        source_line="peers = roster(net)",
        hint="use message-derived ids",
    )
    base.update(overrides)
    return Diagnostic(**base)


class TestSarifDocument:
    def test_schema_and_version(self):
        doc = json.loads(format_sarif([], Summary()))
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_result_location_and_rule(self):
        doc = json.loads(format_sarif([_diag()], Summary(findings=1)))
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "R101"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == (
            "src/repro/core/bad.py"
        )
        assert location["region"]["startLine"] == 7
        assert location["region"]["startColumn"] == 5
        assert "use message-derived ids" in result["message"]["text"]

    def test_every_registered_rule_documented(self):
        doc = json.loads(format_sarif([], Summary(), rules=all_rules()))
        ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {"R101", "R301", "R502", "R701"} <= ids

    def test_results_sorted_and_deterministic(self):
        diags = [
            _diag(path="src/repro/core/z.py", line=2),
            _diag(path="src/repro/core/a.py", line=9),
            _diag(path="src/repro/core/a.py", line=3),
        ]
        one = format_sarif(diags, Summary())
        two = format_sarif(list(reversed(diags)), Summary())
        assert one == two
        doc = json.loads(one)
        uris = [
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in doc["runs"][0]["results"]
        ]
        assert uris == sorted(uris)

    def test_summary_counters_recorded(self):
        doc = json.loads(format_sarif([], Summary(files=94, suppressed=2)))
        props = doc["runs"][0]["properties"]
        assert props["files"] == 94
        assert props["suppressed"] == 2


class TestSarifCli:
    def test_cli_emits_parseable_sarif(self, lint_cli):
        proc = lint_cli("src", "--format=sarif")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro.lint"

    def test_json_format_unchanged(self, lint_cli):
        # The machine-readable JSON contract predates SARIF and stays.
        proc = lint_cli("src", "--format=json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert set(payload) == {"findings", "summary"}
        assert set(payload["summary"]) == {
            "files",
            "findings",
            "suppressed",
            "by_code",
        }
