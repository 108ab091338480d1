"""R3xx — simulator determinism (DESIGN.md "determinism is sacred").

Every run must be exactly reproducible from its seed: recorded event
streams (``repro run --events``) are re-run and compared line for line,
and the adversarial matrix relies on replayable failures.  Randomness
must therefore flow through :func:`repro.sim.rng.make_rng`, and wall
clocks stay confined to the real-network layer (``repro.net``) and
offline analysis.  Iteration order leaking out of unordered collections
is checked on the runs themselves: the same spec under different hash
seeds must emit the same event stream
(``tests/integration/test_hash_seed_determinism.py``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext, Rule

#: The one module allowed to import the stdlib random machinery.
RNG_MODULES = ("sim/rng.py",)

#: Layers exempt from determinism: offline analysis may time itself,
#: and the lint package never runs inside a simulation.
OFFLINE_LAYERS = ("analysis", "lint")

#: Layers additionally allowed to read wall clocks (real networking).
WALL_CLOCK_LAYERS = ("net",)

WALL_CLOCK_ATTRS = {
    "time": frozenset(
        {"time", "monotonic", "perf_counter", "time_ns", "sleep"}
    ),
    "datetime": frozenset({"now", "utcnow", "today"}),
}


def _deterministic_layer(ctx: FileContext) -> bool:
    return not (ctx.in_layer(*OFFLINE_LAYERS) or ctx.is_module(*RNG_MODULES))


class DirectRandomImport(Rule):
    """R301: stdlib ``random`` only enters through ``repro.sim.rng``."""

    code = "R301"
    name = "direct-random-import"
    description = (
        "only repro.sim.rng (and the analysis layer) may import the "
        "stdlib 'random' module; everything else uses make_rng(seed)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _deterministic_layer(ctx)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                if any(
                    alias.name == "random" or alias.name.startswith("random.")
                    for alias in node.names
                ):
                    yield self._diag(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self._diag(ctx, node)

    def _diag(self, ctx: FileContext, node: ast.AST) -> Diagnostic:
        return ctx.diagnostic(
            node,
            self.code,
            "direct 'random' import bypasses the seeded RNG discipline",
            hint="from repro.sim.rng import make_rng (or Random for types)",
        )


class WallClockCall(Rule):
    """R302: no wall-clock reads outside repro.net / repro.analysis."""

    code = "R302"
    name = "wall-clock-call"
    description = (
        "time.time/monotonic/sleep and datetime.now are confined to "
        "repro.net and repro.analysis; simulations use logical rounds"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _deterministic_layer(ctx) and not ctx.in_layer(
            *WALL_CLOCK_LAYERS
        )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "importing from 'time' introduces wall-clock "
                    "dependence into a deterministic layer",
                    hint="simulated layers must use logical round/time",
                )
                continue
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            base = node.func.value
            base_name = base.id if isinstance(base, ast.Name) else ""
            forbidden = WALL_CLOCK_ATTRS.get(base_name)
            if forbidden and node.func.attr in forbidden:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'{base_name}.{node.func.attr}()' reads the wall "
                    "clock in a deterministic layer",
                    hint="simulated layers must use logical round/time",
                )


class ModuleRandomCall(Rule):
    """R303: no calls to the unseeded module-level random functions."""

    code = "R303"
    name = "unseeded-random-call"
    description = (
        "random.random()/choice()/shuffle() etc. use the shared unseeded "
        "global generator; draw from a make_rng(seed) instance"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _deterministic_layer(ctx)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
                and node.func.attr != "Random"
            ):
                continue
            yield ctx.diagnostic(
                node,
                self.code,
                f"'random.{node.func.attr}()' draws from the global "
                "unseeded generator",
                hint="use a repro.sim.rng.make_rng(seed) instance",
            )
