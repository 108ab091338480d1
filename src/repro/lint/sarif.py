"""SARIF 2.1.0 output — so findings annotate PR diffs in CI.

One run, one ``repro.lint`` tool entry, one rule descriptor per rule
that actually fired (plus every registered rule, so suppressed runs
still document the rule set).  Paths are emitted repo-relative with
forward slashes, which is what the GitHub code-scanning upload expects.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.diagnostics import Diagnostic, Summary

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _relative_uri(path: str) -> str:
    candidate = Path(path)
    if candidate.is_absolute():
        try:
            candidate = candidate.relative_to(Path.cwd())
        except ValueError:
            pass
    return candidate.as_posix()


def format_sarif(
    diagnostics: list[Diagnostic],
    summary: Summary,
    rules: list | None = None,
) -> str:
    """Render one lint run as a SARIF 2.1.0 document."""
    descriptors: dict[str, dict] = {}
    for rule in rules or []:
        descriptors[rule.code] = {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
        }
    results = []
    for diag in sorted(diagnostics, key=Diagnostic.sort_key):
        if diag.code not in descriptors:
            descriptors[diag.code] = {
                "id": diag.code,
                "name": diag.code.lower(),
                "shortDescription": {"text": diag.message},
            }
        message = diag.message
        if diag.hint:
            message = f"{message} ({diag.hint})"
        results.append(
            {
                "ruleId": diag.code,
                "level": "error",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": _relative_uri(diag.path),
                            },
                            "region": {
                                "startLine": diag.line,
                                "startColumn": max(diag.col, 1),
                            },
                        }
                    }
                ],
            }
        )
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/lint.md"
                        ),
                        "rules": [
                            descriptors[code]
                            for code in sorted(descriptors)
                        ],
                    }
                },
                "results": results,
                "properties": {
                    "files": summary.files,
                    "findings": summary.findings,
                    "suppressed": summary.suppressed,
                },
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
