"""The whole-program model: module naming, symbols, call resolution."""

from __future__ import annotations

from pathlib import Path

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import load_context
from repro.lint.program import build_program
from repro.lint.program.symbols import module_name_of

from .conftest import FIXTURES


def _contexts(root: Path):
    return [
        ctx
        for ctx in (load_context(p) for p in sorted(root.rglob("*.py")))
        if not isinstance(ctx, Diagnostic)
    ]


def _build(root: Path):
    return build_program(_contexts(root))


def _callees(model, qualname: str) -> set[str]:
    """Qualnames of every call in *qualname* the resolver can place."""
    facts = model.functions[qualname]
    targets = (
        model.resolver.resolve_ref(facts.module, call.ref)
        for call in facts.calls
    )
    return {target.qualname for target in targets if target is not None}


class TestModuleNaming:
    def test_src_layout(self):
        assert (
            module_name_of(Path("src/repro/core/quorum.py"))
            == "repro.core.quorum"
        )

    def test_package_init(self):
        assert module_name_of(Path("src/repro/core/__init__.py")) == (
            "repro.core"
        )

    def test_fixture_layout_matches_real_layout(self, tmp_path):
        nested = tmp_path / "tree" / "repro" / "sim" / "x.py"
        assert module_name_of(nested) == "repro.sim.x"

    def test_bare_file_falls_back_to_stem(self):
        assert module_name_of(Path("scratch.py")) == "scratch"


class TestSymbolsAndCallGraph:
    def test_functions_classes_and_methods_indexed(self):
        model = _build(FIXTURES / "clean_corpus")
        entry = model.modules["repro.core.idioms"]
        assert "ViewTracker" in entry.symbols.classes
        assert "ViewTracker.freeze" in entry.symbols.functions
        assert "integer_quorum" in entry.symbols.functions

    def test_call_graph_resolves_across_re_exports(self):
        # core.proto calls exported_roster, which is a re-export of
        # sim.surface.roster_alias; the edge must land on the original.
        model = _build(FIXTURES / "taint_membership")
        edges = _callees(model, "repro.core.proto.learn")
        assert "repro.sim.surface.roster_alias" in edges

    def test_call_graph_resolves_same_module_helpers(self):
        model = _build(FIXTURES / "taint_membership")
        assert "repro.sim.surface.roster" in _callees(
            model, "repro.sim.surface.roster_alias"
        )

    def test_method_resolution_through_self(self):
        model = _build(FIXTURES / "clean_corpus")
        callers = _callees(model, "repro.core.idioms.tally_from_messages")
        assert "repro.core.idioms.ViewTracker.observe" in callers
        assert "repro.core.idioms.ViewTracker.count" in callers
