"""R701 — shared state across ``await`` points in the async runtime.

The ``asyncsim`` engine interleaves coroutines at ``await`` boundaries:
between suspending and resuming, any other task may run and mutate the
same object.  A check-then-act split across an ``await`` is therefore
the async analogue of a data race:

* state read before the ``await`` and written after it, with no
  re-read in between — the write acts on a stale validation;
* a local snapshot of shared state taken before the ``await`` and used
  after it without being refreshed.

Only attributes that are actually *mutated somewhere in the class* are
considered shared state, so immutable configuration reads stay silent.
The check is a lineno-ordered heuristic, not a happens-before proof —
it runs only on ``async def`` functions in the ``asyncsim``/``net``
layers, where the interleaving hazard is real.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext, Rule


def _self_attr(node: ast.expr) -> str:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _mutated_attrs(
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
) -> set[str]:
    """Attributes written by any method of the class (mutable state).

    ``__init__`` is excluded: initialization is not mutation, and
    counting it would make every attribute — including immutable
    configuration — look engine-shared.
    """
    written: set[str] = set()
    for name, method in methods.items():
        if name == "__init__":
            continue
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if attr:
                        written.add(attr)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # self.x.append(...) style in-place mutation.
                attr = _self_attr(node.func.value)
                if attr and node.func.attr in (
                    "append",
                    "extend",
                    "add",
                    "discard",
                    "remove",
                    "update",
                    "pop",
                    "clear",
                    "insert",
                    "setdefault",
                ):
                    written.add(attr)
    return written


class AwaitSharedState(Rule):
    """R701: no stale check-then-act on shared state across ``await``."""

    code = "R701"
    name = "await-shared-state"
    description = (
        "async runtime code must re-validate engine-shared attributes "
        "after an await before acting on them; other tasks run in the "
        "gap"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer("asyncsim", "net")

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for stmt in ctx.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            # Keyed by name, so a redefinition shadows the earlier one.
            methods = {
                sub.name: sub
                for sub in stmt.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            shared = _mutated_attrs(methods)
            if not shared:
                continue
            for method in methods.values():
                if isinstance(method, ast.AsyncFunctionDef):
                    yield from self._check_function(ctx, method, shared)

    # ------------------------------------------------------------------
    def _check_function(self, ctx, method, shared):
        awaits: list[int] = []
        reads: dict[str, list[int]] = {}
        writes: dict[str, list[int]] = {}
        snapshots: dict[str, tuple[str, int]] = {}  # local -> (attr, line)
        snapshot_uses: list[tuple[str, str, int]] = []
        rebinds: dict[str, list[int]] = {}

        for node in ast.walk(method):
            if isinstance(node, ast.Await):
                awaits.append(node.lineno)
            elif isinstance(node, ast.Attribute):
                attr = _self_attr(node)
                if attr in shared:
                    bucket = (
                        writes
                        if isinstance(node.ctx, (ast.Store, ast.Del))
                        else reads
                    )
                    bucket.setdefault(attr, []).append(node.lineno)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    rebinds.setdefault(target.id, []).append(node.lineno)
                    attr = _self_attr(node.value)
                    if attr in shared:
                        snapshots[target.id] = (attr, node.lineno)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                if node.id in snapshots:
                    attr, taken = snapshots[node.id]
                    snapshot_uses.append((node.id, attr, node.lineno))

        if not awaits:
            return

        def diag(lineno: int, message: str, hint: str) -> Diagnostic:
            return Diagnostic(
                path=ctx.display_path,
                line=lineno,
                col=1,
                code=self.code,
                message=message,
                source_line=ctx.source_line(lineno).strip(),
                hint=hint,
            )

        reported: set[int] = set()
        # Pattern A: read -> await -> write, no re-read in the gap.
        for attr, write_lines in writes.items():
            read_lines = reads.get(attr, [])
            for write_line in write_lines:
                gate = [
                    a
                    for a in awaits
                    if a < write_line
                    and any(r < a for r in read_lines)
                ]
                if not gate:
                    continue
                last_await = max(gate)
                if any(
                    last_await < r < write_line for r in read_lines
                ):
                    continue
                if write_line not in reported:
                    reported.add(write_line)
                    yield diag(
                        write_line,
                        f"'self.{attr}' was checked before an await "
                        "(line "
                        f"{max(r for r in read_lines if r < last_await)}) "
                        "and is written here without re-validation",
                        hint=(
                            "re-read the attribute after resuming; "
                            "another task may have changed it"
                        ),
                    )
        # Pattern B: local snapshot of shared state used after an await.
        for local, attr, use_line in snapshot_uses:
            taken_attr, taken_line = snapshots[local]
            crossing = [
                a for a in awaits if taken_line < a < use_line
            ]
            if not crossing:
                continue
            last_await = max(crossing)
            if any(
                last_await < r <= use_line
                for r in rebinds.get(local, [])
                if r != taken_line
            ):
                continue
            if use_line not in reported:
                reported.add(use_line)
                yield diag(
                    use_line,
                    f"snapshot '{local}' of 'self.{attr}' (line "
                    f"{taken_line}) is used after an await without "
                    "being refreshed",
                    hint=(
                        "re-read self."
                        f"{attr} after the await, or act before "
                        "suspending"
                    ),
                )
