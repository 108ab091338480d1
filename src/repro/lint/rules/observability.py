"""R5xx — event-plane discipline (docs/observability.md).

The observability refactor has one invariant worth a static check:
protocol code emits semantic events through :meth:`NodeApi.emit` and
*only* through it.  A protocol that imports or constructs the plumbing
(``EventBus``, ``Trace``, ``Metrics``, sinks, recorders) ties itself to
one runtime's observability wiring — breaking the "one plane, three
runtimes" guarantee that the same protocol run is observable under the
simulator, the TCP runners, and the asyncsim engine alike — and could
inject events the engine never produced.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext, Rule

PROTOCOL_LAYERS = ("core", "baselines")

#: Observability plumbing classes protocol code must never name.
PLUMBING_NAMES = frozenset({"EventBus", "Trace", "Metrics", "JsonlSink"})

#: Modules whose import into protocol code means plumbing access.
PLUMBING_MODULES = (
    "repro.obs",
    "repro.sim.trace",
    "repro.sim.metrics",
)


def _names_plumbing_module(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in PLUMBING_MODULES
    )


class EventPlaneBypass(Rule):
    """R501: protocols observe only through NodeApi.emit."""

    code = "R501"
    name = "event-plane-bypass"
    description = (
        "protocol code may not import or construct observability "
        "plumbing (EventBus, Trace, Metrics, sinks, recorders); "
        "semantic events go through NodeApi.emit"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_layer(*PROTOCOL_LAYERS)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if _names_plumbing_module(module):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"protocol code imports from '{module}' — "
                        "observability plumbing is runtime territory",
                        hint="emit via api.emit(event, **detail)",
                    )
                    continue
                for alias in node.names:
                    if alias.name in PLUMBING_NAMES:
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"protocol code imports '{alias.name}' — "
                            "observability plumbing is runtime territory",
                            hint="emit via api.emit(event, **detail)",
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _names_plumbing_module(alias.name):
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"protocol code imports '{alias.name}' — "
                            "observability plumbing is runtime territory",
                            hint="emit via api.emit(event, **detail)",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in PLUMBING_NAMES
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"protocol code constructs {node.func.id} directly",
                    hint="emit via api.emit(event, **detail)",
                )
