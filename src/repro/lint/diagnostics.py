"""Diagnostic records and output formatting for the lint pass."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding: a rule violated at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: The stripped source line the finding points at.
    source_line: str = ""
    #: Optional pointer at the sanctioned alternative.
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f" [{self.hint}]"
        return text

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


@dataclass(slots=True)
class Summary:
    """Aggregate counts for one lint run."""

    files: int = 0
    findings: int = 0
    suppressed: int = 0
    by_code: dict[str, int] = field(default_factory=dict)


def format_text(diagnostics: list[Diagnostic], summary: Summary) -> str:
    """Human-readable report: one ``path:line:col: CODE message`` per line."""
    lines = [d.render() for d in sorted(diagnostics, key=Diagnostic.sort_key)]
    tail = (
        f"{summary.findings} finding(s) in {summary.files} file(s)"
        f" ({summary.suppressed} suppressed)"
    )
    if lines:
        return "\n".join(lines) + "\n" + tail
    return tail


def format_json(diagnostics: list[Diagnostic], summary: Summary) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    payload = {
        "findings": [
            asdict(d) for d in sorted(diagnostics, key=Diagnostic.sort_key)
        ],
        "summary": {
            "files": summary.files,
            "findings": summary.findings,
            "suppressed": summary.suppressed,
            "by_code": dict(sorted(summary.by_code.items())),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
