"""The rule engine: file discovery, layer mapping, rule dispatch.

A :class:`Rule` sees one parsed file at a time through a
:class:`FileContext` and yields :class:`Diagnostic` records.  Which
rules run on which file is decided by the file's *layer* — its path
relative to the ``repro`` package root (so ``src/repro/core/rotor.py``
has layer ``("core", "rotor.py")``).  Trees that merely mimic that
shape (the test suite's temp fixtures) are mapped the same way, which
is what lets the negative tests seed violations outside the real tree.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.diagnostics import Diagnostic, Summary
from repro.lint.suppressions import (
    Suppression,
    is_suppressed,
    parse_suppressions,
)

#: Package sub-directories the scoping logic recognizes.
KNOWN_LAYERS = (
    "core",
    "baselines",
    "sim",
    "asyncsim",
    "net",
    "adversary",
    "analysis",
    "obs",
    "lint",
    "scenario",
)


def layer_of(path: Path) -> tuple[str, ...]:
    """Path parts relative to the innermost ``repro`` package root.

    Falls back to the suffix starting at the first recognized layer
    directory (``core``, ``sim``, ...) when no ``repro`` segment exists,
    and to the bare filename otherwise — a standalone file has no layer
    and only layer-agnostic rules apply to it.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return tuple(parts[index + 1:])
    for index, part in enumerate(parts[:-1]):
        if part in KNOWN_LAYERS:
            return tuple(parts[index:])
    return (parts[-1],) if parts else ()


@dataclass(slots=True)
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path
    display_path: str
    layer: tuple[str, ...]
    source: str
    lines: list[str]
    tree: ast.Module
    suppressions: list[Suppression]

    def in_layer(self, *names: str) -> bool:
        """True when the file lives under any of the named layers."""
        return bool(self.layer) and self.layer[0] in names

    def is_module(self, *tails: str) -> bool:
        """True when the layer path matches one of ``pkg/mod.py`` tails."""
        joined = "/".join(self.layer)
        return joined in tails

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def diagnostic(
        self,
        node: ast.AST,
        code: str,
        message: str,
        hint: str = "",
    ) -> Diagnostic:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Diagnostic(
            path=self.display_path,
            line=lineno,
            col=col + 1,
            code=code,
            message=message,
            source_line=self.source_line(lineno).strip(),
            hint=hint,
        )


class Rule(ABC):
    """One enforced invariant, with a stable code and a paper anchor."""

    #: Stable identifier, e.g. ``"R102"``.
    code: str = ""
    #: Short kebab-case name, e.g. ``"global-membership-surface"``.
    name: str = ""
    #: One-line statement of the invariant.
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on *ctx* at all (default: everywhere)."""
        return True

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        """Yield findings for one file."""


@dataclass(slots=True)
class LintResult:
    """Outcome of one run: active findings plus bookkeeping."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    summary: Summary = field(default_factory=Summary)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def discover_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_context(path: Path) -> FileContext | Diagnostic:
    """Parse one file; an unreadable, non-UTF-8 or unparsable file is
    itself a finding (E001)."""
    display = str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Diagnostic(
            path=display,
            line=1,
            col=1,
            code="E001",
            message=f"cannot read file: {exc}",
        )
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return Diagnostic(
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            code="E001",
            message=f"syntax error: {exc.msg}",
        )
    return FileContext(
        path=path,
        display_path=display,
        layer=layer_of(path),
        source=source,
        lines=source.splitlines(),
        tree=tree,
        suppressions=parse_suppressions(source),
    )


def _report(result: LintResult, diag: Diagnostic) -> None:
    result.diagnostics.append(diag)
    result.summary.findings += 1
    result.summary.by_code[diag.code] = (
        result.summary.by_code.get(diag.code, 0) + 1
    )


def _record(result: LintResult, ctx: FileContext, diag: Diagnostic) -> None:
    """Route one finding through the file's inline suppressions."""
    if is_suppressed(ctx.suppressions, diag.code, diag.line):
        result.summary.suppressed += 1
    else:
        _report(result, diag)


def run_paths(paths: Iterable[Path], rules: Iterable[Rule]) -> LintResult:
    """Lint *paths* with *rules*, filtering suppressed findings."""
    rules = list(rules)
    result = LintResult()
    for path in discover_files(paths):
        result.summary.files += 1
        ctx = load_context(path)
        if isinstance(ctx, Diagnostic):
            result.diagnostics.append(ctx)
            result.summary.findings += 1
            continue
        for sup in ctx.suppressions:
            # Blanket opt-outs must say why, or they get reported
            # themselves — suppressions stay visible in review.
            if sup.file_scoped and not sup.reason:
                _report(
                    result,
                    Diagnostic(
                        path=ctx.display_path,
                        line=sup.line,
                        col=1,
                        code="R001",
                        message=(
                            "file-scoped suppression without a "
                            "justification ('-- reason')"
                        ),
                        source_line=ctx.source_line(sup.line).strip(),
                    ),
                )
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for diag in rule.check(ctx):
                _record(result, ctx, diag)
    result.diagnostics.sort(key=Diagnostic.sort_key)
    return result
