"""R1xx — the id-only model (paper §3, DESIGN.md §1).

No correct-node code may consult global knowledge of the participant
set, ``n``, or ``f``.  The only sanctioned membership surfaces inside
``repro.core``/``repro.baselines`` are the locally observed ones:
:class:`~repro.core.quorum.ViewTracker` (``n_v``, frozen views) and
:class:`~repro.sim.node.NodeApi` (``knows``/``send`` gating).  The
known-``n``/``f`` comparators in ``repro.baselines`` take ``n`` and
``f`` by definition, so the parameter ban (R103) covers ``repro.core``
only.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext, Rule

#: Layers bound to the id-only model.
PROTOCOL_LAYERS = ("core", "baselines")

#: Modules that expose the global population or the engine itself.
FORBIDDEN_MODULES = (
    "repro.sim.network",
    "repro.sim.membership",
    "repro.sim.runner",
    "repro.net",
    "repro.adversary",
    "repro.asyncsim",
)

#: Attribute names that only exist on network-level surfaces.
MEMBERSHIP_ATTRS = frozenset(
    {
        "nodes",
        "node_ids",
        "alive_ids",
        "correct_ids",
        "byzantine_ids",
        "all_nodes",
    }
)

#: Receiver names that smell like a configuration/engine object; reading
#: ``.n`` / ``.f`` / ``.membership`` off one of these is global knowledge.
CONFIG_BASES = frozenset(
    {"config", "cfg", "settings", "params", "options", "opts"}
)
ENGINE_BASES = frozenset(
    {"network", "net", "engine", "sim", "cluster", "runner", "world"}
)

#: Parameter names that smuggle the population size into a protocol.
POPULATION_PARAMS = frozenset({"n", "f", "members"})


def _protocol_layer(ctx: FileContext) -> bool:
    return ctx.in_layer(*PROTOCOL_LAYERS)


class ForbiddenImport(Rule):
    """R101: protocol code must not import network/population modules."""

    code = "R101"
    name = "forbidden-import"
    description = (
        "repro.core / repro.baselines may not import modules that expose "
        "the global participant set (sim.network, sim.membership, net, "
        "adversary, ...)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _protocol_layer(ctx)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            modules: Iterator[tuple[ast.AST, str]]
            if isinstance(node, ast.Import):
                modules = ((node, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = iter([(node, node.module)])
            else:
                continue
            for stmt, module in modules:
                if any(
                    module == bad or module.startswith(bad + ".")
                    for bad in FORBIDDEN_MODULES
                ):
                    yield ctx.diagnostic(
                        stmt,
                        self.code,
                        f"protocol code imports '{module}', which exposes "
                        "the global participant set",
                        hint="use ViewTracker/NodeApi; see docs/lint.md#R101",
                    )


class GlobalMembershipSurface(Rule):
    """R102: no reads of network-level membership attributes."""

    code = "R102"
    name = "global-membership-surface"
    description = (
        "protocol code may not read global-membership attributes "
        "(.nodes, .node_ids, .all_nodes, config.n/.f, network.membership)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _protocol_layer(ctx)

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value.id if isinstance(node.value, ast.Name) else ""
            if node.attr in MEMBERSHIP_ATTRS:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'.{node.attr}' is a global-membership surface; "
                    "correct nodes only know who has messaged them",
                    hint="track senders with ViewTracker.observe / n_v",
                )
            elif node.attr in ("n", "f") and base.lower() in CONFIG_BASES:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'{base}.{node.attr}' injects global knowledge of "
                    f"'{node.attr}' into protocol code",
                    hint="the paper's model forbids knowing n or f",
                )
            elif node.attr == "membership" and base.lower() in ENGINE_BASES:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"'{base}.membership' reads the engine's membership "
                    "schedule, not a locally observed view",
                    hint="freeze a local view via ViewTracker.freeze()",
                )


class KnownPopulationParameter(Rule):
    """R103: no ``n``/``f``/``members`` parameters on protocol code."""

    code = "R103"
    name = "known-population-parameter"
    description = (
        "functions in repro.core may not take the population "
        "(n, f, members) as a parameter"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # Not baselines/: the classical comparators are known-n,f
        # algorithms by definition.
        return ctx.in_layer("core")

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            args = node.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            ):
                if arg.arg in POPULATION_PARAMS:
                    yield ctx.diagnostic(
                        arg,
                        self.code,
                        f"parameter '{arg.arg}' of '{node.name}' passes "
                        "global population knowledge into protocol code",
                        hint="derive n_v from ViewTracker instead",
                    )
