"""R502 — scenario-layer discipline (docs/scenarios.md).

The scenario refactor has one invariant worth a static check: run
*consumers* — the CLI and the benchmarks — construct runs through
:mod:`repro.scenario` (a declarative ``RunSpec`` materialized by
``run_spec``/``materialize``) and *only* through it.  A benchmark that
assembles a :class:`~repro.sim.network.SyncNetwork` population by hand
describes a configuration nothing else can serialize, replay, or sweep
— breaking the "one RunSpec, every harness" guarantee (DESIGN.md §4)
that any run the toolkit produces can be shipped as a JSON artifact and
re-executed bit-for-bit with ``repro run --scenario``.

The scenario package itself, the engine, and the tests are out of
scope: they *are* the construction path, or they exercise it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext, Rule

#: Run-construction surface consumers must never name.
CONSTRUCTION_NAMES = frozenset(
    {
        "SyncNetwork",
        "LossyNetwork",
        "Scenario",
        "run_scenario",
    }
)

#: Attribute calls that mean a population is being assembled by hand.
CONSTRUCTION_ATTRS = frozenset({"add_correct", "add_byzantine"})

#: Modules whose import into a run consumer means direct construction.
CONSTRUCTION_MODULES = (
    "repro.sim.runner",
    "repro.sim.network",
    "repro.sim.lossy",
)

_HINT = "describe the run as a repro.scenario.RunSpec and run_spec() it"


def _names_construction_module(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in CONSTRUCTION_MODULES
    )


class ScenarioLayerBypass(Rule):
    """R502: the CLI and benchmarks build runs only via repro.scenario."""

    code = "R502"
    name = "scenario-layer-bypass"
    description = (
        "run consumers (benchmarks/, repro/cli.py) may not construct "
        "SyncNetwork populations or Scenario objects by hand; runs are "
        "declared as repro.scenario.RunSpec and materialized there"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # layer_of() gives benchmarks files bare-filename layers, so
        # scope by path: anything under benchmarks/, plus the CLI.
        return "benchmarks" in ctx.path.parts or ctx.is_module("cli.py")

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if _names_construction_module(module):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"run consumer imports from '{module}' — "
                        "run construction is scenario-layer territory",
                        hint=_HINT,
                    )
                    continue
                for alias in node.names:
                    if alias.name in CONSTRUCTION_NAMES:
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"run consumer imports '{alias.name}' — "
                            "run construction is scenario-layer territory",
                            hint=_HINT,
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _names_construction_module(alias.name):
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"run consumer imports '{alias.name}' — "
                            "run construction is scenario-layer territory",
                            hint=_HINT,
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in CONSTRUCTION_NAMES
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"run consumer calls {node.func.id} directly",
                        hint=_HINT,
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in CONSTRUCTION_ATTRS
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"run consumer assembles a population via "
                        f".{node.func.attr}()",
                        hint=_HINT,
                    )
