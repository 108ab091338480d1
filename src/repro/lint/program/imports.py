"""Import bindings: what each imported local name refers to.

An :class:`ImportBinding` records what one local name means in terms of
other modules: ``import a.b as c`` binds ``c`` to module ``a.b``;
``from a.b import x as y`` binds ``y`` to symbol ``x`` of ``a.b``.
Relative imports are resolved against the importing module's package so
fixture trees and the real tree behave identically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ImportBinding:
    """One imported local name."""

    local: str  # the name usable in this module
    module: str  # dotted module the name comes from
    symbol: str  # "" when the binding is the module object itself


def _resolve_relative(
    module_name: str, is_package: bool, level: int, target: str
) -> str:
    """Absolute module named by a ``from ... import`` with *level* dots."""
    parts = module_name.split(".") if module_name else []
    if not is_package and parts:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop <= len(parts) else []
    if target:
        parts = [*parts, *target.split(".")]
    return ".".join(parts)


def parse_import_bindings(
    tree: ast.Module, module_name: str, is_package: bool
) -> dict[str, ImportBinding]:
    """Every local name bound by an import statement in *tree*."""
    bindings: dict[str, ImportBinding] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                # ``import a.b`` binds ``a`` to package ``a``; with an
                # asname the full dotted module is bound directly.
                module = alias.name if alias.asname else local
                bindings[local] = ImportBinding(local, module, "")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = _resolve_relative(
                    module_name, is_package, node.level, module
                )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = ImportBinding(local, module, alias.name)
    return bindings
