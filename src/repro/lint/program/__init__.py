"""Whole-program semantic model for :mod:`repro.lint`.

Phase one of the two-phase lint run: every parsed file becomes a
:class:`ModuleEntry` (symbol table + per-function dataflow facts), the
entries are linked by a :class:`~repro.lint.program.callgraph.Resolver`,
and program rules query interprocedural taint through
:meth:`ProgramModel.taint`, which memoizes one fixpoint per spec.

Contexts are duck-typed (``path``, ``layer``, ``tree``),
deliberately: the engine imports this package, not the other way
around.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.lint.program.callgraph import Resolver
from repro.lint.program.dataflow import (
    FloatSpec,
    FunctionFacts,
    MembershipSpec,
    TaintAnalysis,
    TaintSpec,
    UnorderedSpec,
    extract_module_facts,
)
from repro.lint.program.symbols import (
    ModuleSymbols,
    build_module_symbols,
    module_name_of,
)

SPECS: dict[str, type[TaintSpec]] = {
    "membership": MembershipSpec,
    "float": FloatSpec,
    "unordered": UnorderedSpec,
}


@dataclass(slots=True)
class ModuleEntry:
    """One analyzed module: its context, symbols, and local facts."""

    ctx: object  # FileContext (duck-typed)
    symbols: ModuleSymbols
    facts: dict[str, FunctionFacts]  # keyed by local name


class ProgramModel:
    """The linked whole-program view handed to program rules."""

    def __init__(self, entries: dict[str, ModuleEntry]):
        #: dotted module name -> entry
        self.modules = entries
        self.resolver = Resolver(
            {name: entry.symbols for name, entry in entries.items()}
        )
        #: qualname -> facts, the fixpoint's working set
        self.functions: dict[str, FunctionFacts] = {}
        for entry in entries.values():
            for facts in entry.facts.values():
                self.functions[facts.qualname] = facts
        self._taints: dict[str, TaintAnalysis] = {}

    def taint(self, spec_name: str) -> TaintAnalysis:
        """The (memoized) interprocedural fixpoint for one taint spec."""
        analysis = self._taints.get(spec_name)
        if analysis is None:
            analysis = TaintAnalysis(
                self.functions, self.resolver, SPECS[spec_name]()
            )
            self._taints[spec_name] = analysis
        return analysis

    def entry_for(self, facts: FunctionFacts) -> ModuleEntry | None:
        return self.modules.get(facts.module)


def build_program(contexts: list) -> ProgramModel:
    """Phase one: link all parsed contexts into a :class:`ProgramModel`."""
    entries: dict[str, ModuleEntry] = {}
    for ctx in contexts:
        path = Path(ctx.path)
        name = module_name_of(path)
        symbols = build_module_symbols(name, path, ctx.layer, ctx.tree)
        entries[name] = ModuleEntry(
            ctx=ctx, symbols=symbols, facts=extract_module_facts(symbols)
        )
    return ProgramModel(entries)
