"""Inline suppression directives.

Two forms, both carrying an optional justification after ``--``:

* line-scoped — silences matching findings on the physical line the
  comment sits on, or — when the comment is a line of its own — on the
  line directly below it::

      self._rng = random.Random(seed)  # repro-lint: disable=R301 -- seeded here

      # repro-lint: disable=R302 -- times its own setup, not a simulation
      started = time.perf_counter()

* file-scoped — a comment line anywhere in the file (conventionally at
  the top) silences matching findings in the whole file::

      # repro-lint: disable-file=R302 -- wall-clock layer by design

The value is a comma-separated list of rule codes; there is no
wildcard.  Unjustified file-scoped directives are themselves reported
(code ``R001``) so blanket opt-outs stay visible in review.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.*))?$"
)


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed directive."""

    line: int  # 1-based physical line of the comment
    codes: frozenset[str]  # upper-cased rule codes
    file_scoped: bool
    reason: str
    #: The comment stands alone on its line, so it guards the next line.
    own_line: bool = False

    def matches(self, code: str) -> bool:
        return code.upper() in self.codes

    def covers_line(self, line: int) -> bool:
        if self.file_scoped:
            return True
        if self.own_line:
            return line == self.line + 1
        return line == self.line


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract every directive from *source* (line comments only)."""
    found: list[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        codes = frozenset(
            part.strip().upper()
            for part in match.group("codes").split(",")
            if part.strip()
        )
        found.append(
            Suppression(
                line=lineno,
                codes=codes,
                file_scoped=match.group("scope") == "disable-file",
                reason=(match.group("reason") or "").strip(),
                own_line=text.lstrip().startswith("#"),
            )
        )
    return found


def is_suppressed(
    suppressions: list[Suppression], code: str, line: int
) -> bool:
    """True when a directive silences *code* at physical *line*."""
    for sup in suppressions:
        if sup.matches(code) and sup.covers_line(line):
            return True
    return False
