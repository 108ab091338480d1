"""Module naming and the per-module symbol table.

The program model keys everything by *dotted module name*, derived the
same way :func:`repro.lint.engine.layer_of` derives layers: anchored at
the innermost ``repro`` path segment.  Fixture trees that mimic the
``repro/<layer>/...`` layout therefore get real module names
(``repro.core.proto``), which is what lets the interprocedural tests
seed cross-module flows outside the real tree.

A :class:`ModuleSymbols` is the purely *local* view of one module:
its top-level functions and classes (with methods), simple module-level
aliases, and import bindings.  Cross-module resolution lives in
:mod:`repro.lint.program.callgraph`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.program.imports import ImportBinding, parse_import_bindings


def module_name_of(path: Path) -> str:
    """Dotted module name anchored at the innermost ``repro`` segment.

    ``.../src/repro/core/x.py`` -> ``repro.core.x``;
    ``.../repro/core/__init__.py`` -> ``repro.core``;
    a bare file falls back to its stem.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return parts[-1] if parts else ""


def _annotation_name(node: ast.expr | None) -> str:
    """Terminal name of an annotation (``frozenset[NodeId]`` -> ``frozenset``)."""
    if node is None:
        return ""
    if isinstance(node, ast.Subscript):
        return _annotation_name(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations: take the part before any subscript.
        return node.value.split("[", 1)[0].strip()
    return ""


@dataclass(slots=True)
class FunctionInfo:
    """One function or method, addressable program-wide."""

    qualname: str  # "repro.core.x.Cls.meth" or "repro.core.x.func"
    module: str
    local_name: str  # "Cls.meth" or "func"
    class_name: str  # "" for module-level functions
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]  # positional-or-keyword order, incl. self
    param_annotations: tuple[str, ...]  # terminal names, "" when absent
    return_annotation: str  # terminal name, "" when absent
    is_async: bool

    @property
    def is_method(self) -> bool:
        return bool(self.class_name)


@dataclass(slots=True)
class ClassInfo:
    """One class with its directly defined methods."""

    name: str
    qualname: str
    bases: tuple[str, ...]  # base names as written (terminal names)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleSymbols:
    """The local symbol surface of one module."""

    name: str
    path: str
    layer: tuple[str, ...]
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Simple module-level aliases: ``short = long_name``.
    aliases: dict[str, str] = field(default_factory=dict)
    imports: dict[str, ImportBinding] = field(default_factory=dict)


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: str,
    class_name: str,
) -> FunctionInfo:
    args = node.args
    ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    local = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        qualname=f"{module}.{local}",
        module=module,
        local_name=local,
        class_name=class_name,
        node=node,
        params=tuple(arg.arg for arg in ordered),
        param_annotations=tuple(
            _annotation_name(arg.annotation) for arg in ordered
        ),
        return_annotation=_annotation_name(node.returns),
        is_async=isinstance(node, ast.AsyncFunctionDef),
    )


def build_module_symbols(
    name: str, path: Path, layer: tuple[str, ...], tree: ast.Module
) -> ModuleSymbols:
    """Extract the local symbol table of one parsed module."""
    is_package = path.name == "__init__.py"
    symbols = ModuleSymbols(
        name=name,
        path=str(path),
        layer=layer,
        imports=parse_import_bindings(tree, name, is_package),
    )
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(stmt, name, "")
            symbols.functions[info.local_name] = info
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                name=stmt.name,
                qualname=f"{name}.{stmt.name}",
                bases=tuple(
                    base.id if isinstance(base, ast.Name) else (
                        base.attr if isinstance(base, ast.Attribute) else ""
                    )
                    for base in stmt.bases
                ),
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = _function_info(sub, name, stmt.name)
                    cls.methods[sub.name] = info
                    symbols.functions[info.local_name] = info
            symbols.classes[stmt.name] = cls
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                stmt.value, ast.Name
            ):
                symbols.aliases[target.id] = stmt.value.id
    return symbols
