"""R603 — unordered-iteration escape analysis.

Iterating a set in protocol code is not a defect by itself: commutative
folds over a set (counting, ``.discard()``, building another set) are
perfectly deterministic, and a syntactic ban would need inline
suppressions to say so.  R603 uses escape reasoning instead: a loop
over an unordered iterable is only a finding when something
*order-sensitive* leaves the loop — an ordered sequence is built
(``.append``), a payload is emitted (``send``/``broadcast``/
``decide``), a value is returned/yielded from inside the loop, a
first-match ``break`` selects a winner, or the loop variable is handed
to a function that provably carries it to such a sink (decided against
the callee's interprocedural sink summary).

Whether the iterable is unordered is itself interprocedural: a
``frozenset`` built three calls away, an annotated ``set`` parameter,
or an ``InboxIndex.senders()`` view all taint the loop.

A second check covers selector ties: ``max``/``min``/``next`` over an
unordered view without ``key=`` lets iteration order pick the winner.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ProgramRule
from repro.lint.rules.program_taint import _diag

ORDER_LAYERS = ("core", "baselines")

#: Unordered-view producers whose ties a key-less selector may break
#: by iteration order.
TIE_NAMES = frozenset(
    {
        "set",
        "frozenset",
        "senders",
        "sender_set",
        "distinct_senders",
        "keys",
        "values",
        "items",
    }
)

SELECTORS = frozenset({"max", "min", "next"})


class UnorderedEscape(ProgramRule):
    """R603: set iteration order must not escape into protocol output."""

    code = "R603"
    name = "unordered-iteration-escape"
    description = (
        "iterating an unordered collection in protocol code is only a "
        "defect when the order escapes — into an ordered sequence, an "
        "emitted payload, a returned/selected value, or a callee that "
        "carries it to such a sink"
    )

    def check_program(self, model) -> Iterable[Diagnostic]:
        analysis = model.taint("unordered")
        for facts in model.functions.values():
            if not facts.layer or facts.layer[0] not in ORDER_LAYERS:
                continue
            yield from self._check_loops(model, analysis, facts)
            yield from self._check_selectors(model, analysis, facts)

    # ------------------------------------------------------------------
    def _check_loops(self, model, analysis, facts):
        for loop in facts.loops:
            unordered = loop.intrinsic_unordered or analysis.evaluate(
                facts, loop.iter_terms
            ).intrinsic
            if not unordered:
                continue
            for escape in loop.escapes:
                if escape.kind == "call":
                    diag = self._call_escape(
                        model, analysis, facts, loop, escape
                    )
                    if diag is not None:
                        yield diag
                else:
                    yield _diag(
                        model,
                        facts,
                        escape.lineno,
                        escape.col,
                        self.code,
                        f"iteration over {loop.source_desc} escapes: "
                        f"{escape.detail}",
                        hint=(
                            "wrap the iterable in sorted(), or keep the "
                            "loop body commutative"
                        ),
                    )

    def _call_escape(self, model, analysis, facts, loop, escape):
        call = facts.calls[escape.call_index]
        target = analysis.resolve(facts, call.ref)
        if target is None:
            return None
        summary = analysis.summaries.get(target.qualname)
        if summary is None or not summary.sink_params:
            return None
        offset = (
            1 if target.is_method and target.params[:1] == ("self",) else 0
        )
        for position in escape.derived_args:
            if position + offset in summary.sink_params:
                return _diag(
                    model,
                    facts,
                    escape.lineno,
                    escape.col,
                    self.code,
                    f"iteration over {loop.source_desc} escapes: "
                    f"'{target.local_name}()' carries the loop value to "
                    "an order-sensitive sink",
                    hint=(
                        "sort the iterable before the loop, or make the "
                        "callee order-insensitive"
                    ),
                )
        return None

    # ------------------------------------------------------------------
    def _check_selectors(self, model, analysis, facts):
        for call in facts.calls:
            name = call.ref[1] if call.ref[0] == "local" else ""
            if name not in SELECTORS or call.has_key_kwarg or not call.args:
                continue
            first = call.args[0]
            hazard = any(
                term[0] == "call"
                and self._tie_source(facts, term[1])
                for term in first
            ) or analysis.evaluate(facts, first).intrinsic
            if hazard:
                yield _diag(
                    model,
                    facts,
                    call.lineno,
                    call.col,
                    self.code,
                    f"'{name}()' over an unordered view without a key= "
                    "lets iteration order break ties",
                    hint="supply key= with a total order, or sorted()",
                )

    @staticmethod
    def _tie_source(facts, index: int) -> bool:
        if index >= len(facts.calls):
            return False
        ref = facts.calls[index].ref
        terminal = ref[1] if ref[0] == "local" else ref[-1]
        return terminal in TIE_NAMES
