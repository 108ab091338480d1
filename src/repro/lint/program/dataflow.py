"""Per-function dataflow facts and the interprocedural taint fixpoint.

The extractor walks each function once and records *facts* — a small
term graph instead of the AST:

* which **terms** flow to the return value, where a term is
  ``("param", i)`` (derived from parameter *i*), ``("src", spec)`` (an
  intrinsic source of one taint spec), or ``("call", k)`` (the result of
  the *k*-th call in the function);
* every **call site**, with the callee reference as written and the
  terms flowing into each argument;
* every **comparison** (the R602 sink), with the terms of its operands
  and whether an operand is count-like;
* every **loop over a possibly-unordered iterable**, with the
  order-sensitive *escapes* of the loop variable found in its body;
* which parameters locally reach an **order-sensitive sink**
  (``.append``, ``api.send``, ...).

Facts are purely local — no cross-module knowledge.  The
:class:`TaintAnalysis` fixpoint then combines them under one
:class:`TaintSpec` into per-function summaries (does the return carry
taint? which parameters propagate? which parameters reach a sink?),
iterating until stable, so taint crosses any chain of calls, aliases,
and containers the extractor recorded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.program.callgraph import Ref, Resolver, ref_name
from repro.lint.program.symbols import (
    FunctionInfo,
    ModuleSymbols,
    _annotation_name,
)

Term = tuple
TermSet = frozenset

EMPTY: TermSet = frozenset()

# ---------------------------------------------------------------------------
# Source vocabularies (shared with the syntactic R1xx/R2xx rules).
# ---------------------------------------------------------------------------

#: Attribute reads that expose the global participant set.
MEMBERSHIP_ATTRS = frozenset(
    {
        "nodes",
        "node_ids",
        "alive_ids",
        "correct_ids",
        "byzantine_ids",
        "all_nodes",
        "membership",
    }
)

#: ``.n`` / ``.f`` on these receiver names is global knowledge.
POPULATION_BASES = frozenset(
    {
        "config",
        "cfg",
        "settings",
        "params",
        "options",
        "opts",
        "network",
        "net",
        "engine",
        "sim",
        "cluster",
        "runner",
        "world",
    }
)

#: Written names whose *call* yields an unordered collection.
UNORDERED_CALL_NAMES = frozenset(
    {"set", "frozenset", "senders", "distinct_senders", "sender_set"}
)

#: Iterables that are syntactically ordered — loops over them are never
#: recorded (also the sanctioned wrappers: sorted imposes a total order).
ORDERED_ITER_NAMES = frozenset(
    {"sorted", "range", "enumerate", "list", "tuple", "zip", "reversed"}
)

#: Methods that install into an *ordered* container (order-sensitive).
APPEND_NAMES = frozenset({"append", "extend", "insert", "appendleft"})

#: Calls that emit a value out of the node (message payloads, decisions).
EMIT_NAMES = frozenset({"send", "broadcast", "emit", "decide", "publish"})

#: Consumers for which generator order cannot matter.
ORDER_SAFE_CONSUMERS = frozenset(
    {
        "sorted",
        "set",
        "frozenset",
        "sum",
        "any",
        "all",
        "len",
        "Counter",
        "max",
        "min",
        "dict",
    }
)

#: Consumers that materialize generator order into a sequence.
ORDER_SINK_CONSUMERS = frozenset({"list", "tuple", "join"})

#: Substrings of a name that mark a comparison operand as count-like.
_COUNT_MARKERS = (
    "count",
    "n_v",
    "tally",
    "vote",
    "quorum",
    "threshold",
    "heard",
    "echo",
    "ack",
)

SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet"})


def _is_countlike_name(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in _COUNT_MARKERS)


def _expr_is_countlike(node: ast.expr) -> bool:
    """Does this comparison operand smell like an integer tally?"""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
        ):
            return True
        if isinstance(sub, ast.Name) and _is_countlike_name(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_countlike_name(sub.attr):
            return True
    return False


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CallFact:
    """One call site, with the terms flowing into each argument."""

    lineno: int
    col: int
    ref: Ref
    args: tuple[TermSet, ...]
    kwargs: tuple[tuple[str, TermSet], ...]
    has_key_kwarg: bool


@dataclass(slots=True)
class CompareFact:
    """One comparison — the float-taint sink."""

    lineno: int
    col: int
    terms: TermSet
    countlike: bool


@dataclass(slots=True)
class EscapeFact:
    """One order-sensitive use of a loop-derived value."""

    lineno: int
    col: int
    kind: str  # append | emit | return | yield | break | call | listcomp
    detail: str
    call_index: int = -1  # for kind == "call"
    derived_args: tuple[int, ...] = ()  # positions carrying loop taint
    receiver: str = ""  # for kind == "append": the container name


@dataclass(slots=True)
class LoopFact:
    """One loop whose iterable may be unordered."""

    lineno: int
    col: int
    intrinsic_unordered: bool
    source_desc: str
    iter_terms: TermSet
    escapes: tuple[EscapeFact, ...]


@dataclass(slots=True)
class FunctionFacts:
    """Everything the fixpoint needs to know about one function."""

    qualname: str
    module: str
    layer: tuple[str, ...]
    local_name: str
    class_name: str
    lineno: int
    params: tuple[str, ...]
    param_annotations: tuple[str, ...]
    return_annotation: str
    is_async: bool
    ret_terms: TermSet = EMPTY
    calls: list[CallFact] = field(default_factory=list)
    compares: list[CompareFact] = field(default_factory=list)
    loops: list[LoopFact] = field(default_factory=list)
    local_order_sinks: frozenset[int] = frozenset()


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


class FactsExtractor:
    """One-pass, flow-approximate fact extraction for one function."""

    def __init__(self, info: FunctionInfo, symbols: ModuleSymbols):
        self._info = info
        self._symbols = symbols
        self.facts = FunctionFacts(
            qualname=info.qualname,
            module=symbols.name,
            layer=symbols.layer,
            local_name=info.local_name,
            class_name=info.class_name,
            lineno=info.node.lineno,
            params=info.params,
            param_annotations=info.param_annotations,
            return_annotation=info.return_annotation,
            is_async=info.is_async,
        )
        self._env: dict[str, TermSet] = {
            name: frozenset({("param", i)})
            for i, name in enumerate(info.params)
        }
        #: Locals with a known (written) class name, for method resolution.
        self._types: dict[str, str] = {
            name: ann
            for name, ann in zip(info.params, info.param_annotations)
            if ann[:1].isupper()
        }
        #: Container names whose contents get sorted later in the body —
        #: their append-escapes are sanctioned.
        self._sorted_names: set[str] = set()
        self._seed = True  # syntactic sources enabled (off inside compares)

    # -- entry ----------------------------------------------------------
    def run(self) -> FunctionFacts:
        body = self._info.node.body
        self._scan_sorted_names(body)
        self._exec_block(body)
        self._facts_param_sinks()
        self._filter_sorted_escapes()
        return self.facts

    def _filter_sorted_escapes(self) -> None:
        """Drop append-escapes into containers that get sorted later."""
        kept: list[LoopFact] = []
        for loop in self.facts.loops:
            escapes = tuple(
                escape
                for escape in loop.escapes
                if not (
                    escape.kind == "append"
                    and escape.receiver
                    and escape.receiver in self._sorted_names
                )
            )
            if escapes:
                kept.append(
                    LoopFact(
                        lineno=loop.lineno,
                        col=loop.col,
                        intrinsic_unordered=loop.intrinsic_unordered,
                        source_desc=loop.source_desc,
                        iter_terms=loop.iter_terms,
                        escapes=escapes,
                    )
                )
        self.facts.loops = kept

    def _scan_sorted_names(self, body: list[ast.stmt]) -> None:
        """Names that are later totally ordered (``sorted(x)``/``x.sort()``)."""
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "sorted"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                self._sorted_names.add(node.args[0].id)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "sort"
                and isinstance(func.value, ast.Name)
            ):
                self._sorted_names.add(func.value.id)

    # -- statements -----------------------------------------------------
    def _exec_block(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            terms = self._eval(stmt.value)
            cls = self._constructed_class(stmt.value)
            for target in stmt.targets:
                self._bind(target, terms, cls)
        elif isinstance(stmt, ast.AnnAssign):
            terms = self._eval(stmt.value) if stmt.value else EMPTY
            ann = _annotation_name(stmt.annotation)
            if isinstance(stmt.target, ast.Name):
                if ann in SET_ANNOTATIONS:
                    terms = terms | {("src", "unordered")}
                self._bind(stmt.target, terms, ann if ann[:1].isupper()
                           else "")
        elif isinstance(stmt, ast.AugAssign):
            terms = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                existing = self._env.get(stmt.target.id, EMPTY)
                self._env[stmt.target.id] = existing | terms
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.facts.ret_terms = self.facts.ret_terms | self._eval(
                    stmt.value
                )
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._handle_loop(stmt)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.body)  # loop-carried taint, 2nd pass
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                terms = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, terms, "")
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self._eval(sub)
        elif isinstance(stmt, ast.Delete):
            pass
        # Nested function/class definitions are not descended into.

    def _bind(self, target: ast.expr, terms: TermSet, cls: str) -> None:
        if isinstance(target, ast.Name):
            self._env[target.id] = terms
            if cls:
                self._types[target.id] = cls
            else:
                self._types.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, terms, "")
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval(target.value)

    def _constructed_class(self, value: ast.expr) -> str:
        """Written class name when *value* is ``ClassName(...)``."""
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            name = value.func.id
            if name[:1].isupper():
                return name
        return ""

    # -- expressions ----------------------------------------------------
    def _eval(self, node: ast.expr | None) -> TermSet:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return self._env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            if (
                self._seed
                and isinstance(node.value, float)
                and node.value not in (0.0, 1.0)
            ):
                return frozenset({("src", "float")})
            return EMPTY
        if isinstance(node, ast.Attribute):
            terms = self._eval(node.value)
            if self._seed:
                base = (
                    node.value.id
                    if isinstance(node.value, ast.Name)
                    else ""
                )
                if node.attr in MEMBERSHIP_ATTRS or (
                    node.attr in ("n", "f")
                    and base.lower() in POPULATION_BASES
                ):
                    terms = terms | {("src", "membership")}
            return terms
        if isinstance(node, ast.BinOp):
            terms = self._eval(node.left) | self._eval(node.right)
            if self._seed and isinstance(node.op, ast.Div):
                terms = terms | {("src", "float")}
            return terms
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: TermSet = EMPTY
            for value in node.values:
                out = out | self._eval(value)
            return out
        if isinstance(node, ast.Compare):
            self._record_compare(node)
            return EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            out = EMPTY
            for element in node.elts:
                out = out | self._eval(element)
            return out
        if isinstance(node, ast.Set):
            out = frozenset({("src", "unordered")}) if self._seed else EMPTY
            for element in node.elts:
                out = out | self._eval(element)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                out = out | self._eval(key)
            for value in node.values:
                out = out | self._eval(value)
            return out
        if isinstance(node, ast.SetComp):
            self._eval_comprehension(node)
            return (
                frozenset({("src", "unordered")}) if self._seed else EMPTY
            ) | self._comp_element_terms(node)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            self._eval_comprehension(node)
            return self._comp_element_terms(node)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value) | self._eval(node.slice)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out = out | self._eval(value.value)
            return out
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Slice):
            out = EMPTY
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    out = out | self._eval(part)
            return out
        if isinstance(node, (ast.Lambda, ast.NamedExpr)):
            if isinstance(node, ast.NamedExpr):
                terms = self._eval(node.value)
                if isinstance(node.target, ast.Name):
                    self._env[node.target.id] = terms
                return terms
            return EMPTY
        return EMPTY

    def _comp_element_terms(self, node: ast.expr) -> TermSet:
        """Terms of a comprehension's element(s) and iterables."""
        out: TermSet = EMPTY
        for gen in node.generators:  # type: ignore[attr-defined]
            out = out | self._eval(gen.iter)
        if isinstance(node, ast.DictComp):
            return out | self._eval(node.key) | self._eval(node.value)
        return out | self._eval(node.elt)  # type: ignore[attr-defined]

    def _eval_comprehension(self, node: ast.expr) -> None:
        """Record loop facts for comprehension generators."""
        for gen in node.generators:  # type: ignore[attr-defined]
            is_list = isinstance(node, ast.ListComp)
            self._maybe_record_loop(
                gen.iter,
                body=None,
                target=gen.target,
                materializes_list=is_list,
            )

    def _record_compare(self, node: ast.Compare) -> None:
        operands = (node.left, *node.comparators)
        # Syntactic float sources lexically inside the comparison are
        # R201/R203's findings; only dataflow-borne taint counts here.
        previous, self._seed = self._seed, False
        terms: TermSet = EMPTY
        try:
            for operand in operands:
                terms = terms | self._eval(operand)
        finally:
            self._seed = previous
        self.facts.compares.append(
            CompareFact(
                lineno=node.lineno,
                col=node.col_offset,
                terms=terms,
                countlike=any(_expr_is_countlike(op) for op in operands),
            )
        )

    # -- calls ----------------------------------------------------------
    def _call_ref(self, func: ast.expr) -> Ref:
        if isinstance(func, ast.Name):
            return ("local", func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "self" and self._info.class_name:
                    return ("method", self._info.class_name, func.attr)
                typed = self._types.get(value.id)
                if typed:
                    return ("method", typed, func.attr)
                return ("attr", value.id, func.attr)
            return ("opaque", func.attr)
        return ("opaque", "")

    def _eval_call(self, node: ast.Call) -> TermSet:
        ref = self._call_ref(node.func)
        if isinstance(node.func, ast.Attribute):
            self._eval(node.func.value)
        args = tuple(self._eval(arg) for arg in node.args)
        kwargs = tuple(
            (kw.arg or "**", self._eval(kw.value)) for kw in node.keywords
        )
        index = len(self.facts.calls)
        self.facts.calls.append(
            CallFact(
                lineno=node.lineno,
                col=node.col_offset,
                ref=ref,
                args=args,
                kwargs=kwargs,
                has_key_kwarg=any(kw.arg == "key" for kw in node.keywords),
            )
        )
        return frozenset({("call", index)})

    # -- loops ----------------------------------------------------------
    def _handle_loop(self, stmt: ast.For | ast.AsyncFor) -> None:
        iter_terms = self._eval(stmt.iter)
        self._bind(stmt.target, iter_terms, "")
        # The body must be evaluated BEFORE the escape pass so that
        # call-mediated escapes can point at recorded call facts.
        self._exec_block(stmt.body)
        self._exec_block(stmt.body)  # loop-carried taint, 2nd pass
        self._exec_block(stmt.orelse)
        self._maybe_record_loop(
            stmt.iter,
            body=stmt.body,
            target=stmt.target,
            iter_terms=iter_terms,
        )

    def _iter_unordered_desc(self, node: ast.expr) -> str:
        """Human description when *node* is syntactically unordered."""
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("set", "frozenset")
            ):
                return f"{func.id}(...)"
            if (
                isinstance(func, ast.Attribute)
                and func.attr in UNORDERED_CALL_NAMES
            ):
                return f".{func.attr}()"
        elif isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        return ""

    def _iter_is_ordered(self, node: ast.expr) -> bool:
        """Syntactically ordered iterables — never worth a loop fact."""
        if isinstance(node, (ast.List, ast.Tuple, ast.ListComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ORDERED_ITER_NAMES
            ):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "items",
                "keys",
                "values",
                "most_common",
                "filter",
                "instance_tags",
            ):
                # Dict views are insertion-ordered in Python; inbox
                # buckets are delivery-ordered lists.
                return True
        return False

    def _maybe_record_loop(
        self,
        iter_node: ast.expr,
        body: list[ast.stmt] | None,
        target: ast.expr,
        materializes_list: bool = False,
        iter_terms: TermSet | None = None,
    ) -> TermSet:
        """Record a loop fact when the iterable may be unordered.

        *iter_terms* is passed in when the caller already evaluated the
        iterable (``For`` loops); comprehensions evaluate it here.
        """
        desc = self._iter_unordered_desc(iter_node)
        ordered = not desc and self._iter_is_ordered(iter_node)
        if iter_terms is None:
            iter_terms = self._eval(iter_node)
        if ordered or (not desc and not iter_terms):
            return iter_terms
        escapes: list[EscapeFact] = []
        if body is not None:
            escapes = self._loop_escapes(target, body)
        elif materializes_list:
            escapes = [
                EscapeFact(
                    lineno=iter_node.lineno,
                    col=iter_node.col_offset,
                    kind="listcomp",
                    detail="list comprehension materializes iteration order",
                )
            ]
        if escapes:
            self.facts.loops.append(
                LoopFact(
                    lineno=iter_node.lineno,
                    col=iter_node.col_offset,
                    intrinsic_unordered=bool(desc),
                    source_desc=desc or "an unordered value",
                    iter_terms=iter_terms,
                    escapes=tuple(escapes),
                )
            )
        return iter_terms

    # -- loop-body escape analysis --------------------------------------
    def _loop_escapes(
        self, target: ast.expr, body: list[ast.stmt]
    ) -> list[EscapeFact]:
        derived: set[str] = set()
        self._collect_names(target, derived)
        escapes: list[EscapeFact] = []
        assigned_derived = False

        def mentions(node: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Name) and sub.id in derived
                for sub in ast.walk(node)
            )

        def walk(stmts: list[ast.stmt]) -> None:
            nonlocal assigned_derived
            for stmt in stmts:
                if isinstance(stmt, ast.Assign) and mentions(stmt.value):
                    assigned_derived = True
                    for tgt in stmt.targets:
                        self._collect_names(tgt, derived)
                elif isinstance(stmt, ast.AugAssign) and mentions(
                    stmt.value
                ):
                    assigned_derived = True
                    self._collect_names(stmt.target, derived)
                elif isinstance(stmt, ast.Return):
                    if stmt.value is not None and mentions(stmt.value):
                        escapes.append(
                            EscapeFact(
                                stmt.lineno,
                                stmt.col_offset,
                                "return",
                                "returns a value picked by set order",
                            )
                        )
                elif isinstance(stmt, ast.Break):
                    if assigned_derived:
                        escapes.append(
                            EscapeFact(
                                stmt.lineno,
                                stmt.col_offset,
                                "break",
                                "first-match selection over set order",
                            )
                        )
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Yield) and sub.value is not None:
                        if mentions(sub.value):
                            escapes.append(
                                EscapeFact(
                                    sub.lineno,
                                    sub.col_offset,
                                    "yield",
                                    "yields values in set order",
                                )
                            )
                    elif isinstance(sub, ast.Call):
                        self._call_escape(sub, mentions, escapes)
                if isinstance(stmt, (ast.If, ast.For, ast.While)):
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body)
                    for handler in stmt.handlers:
                        walk(handler.body)
                    walk(stmt.orelse)
                    walk(stmt.finalbody)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    walk(stmt.body)

        walk(body)
        return escapes

    def _call_escape(self, node, mentions, escapes) -> None:
        """Order-sensitive sinks reached through a call in a loop body."""
        func = node.func
        derived_args = tuple(
            i for i, arg in enumerate(node.args) if mentions(arg)
        )
        if not derived_args and not any(
            mentions(kw.value) for kw in node.keywords
        ):
            return
        if isinstance(func, ast.Attribute):
            if func.attr in APPEND_NAMES:
                receiver = (
                    func.value.id
                    if isinstance(func.value, ast.Name)
                    else ""
                )
                escapes.append(
                    EscapeFact(
                        node.lineno,
                        node.col_offset,
                        "append",
                        f".{func.attr}() builds an ordered sequence "
                        "in set order",
                        receiver=receiver,
                    )
                )
                return
            if func.attr in EMIT_NAMES:
                escapes.append(
                    EscapeFact(
                        node.lineno,
                        node.col_offset,
                        "emit",
                        f".{func.attr}() emits a payload shaped by "
                        "set order",
                    )
                )
                return
        elif isinstance(func, ast.Name) and func.id in EMIT_NAMES:
            escapes.append(
                EscapeFact(
                    node.lineno,
                    node.col_offset,
                    "emit",
                    f"{func.id}() emits a payload shaped by set order",
                )
            )
            return
        # A resolvable helper may carry the value to a sink one or more
        # hops away; decided by the fixpoint against its sink summary.
        ref = self._call_ref(func)
        if ref[0] in ("local", "method", "attr") and derived_args:
            for index, call in enumerate(self.facts.calls):
                if call.lineno == node.lineno and call.col == node.col_offset:
                    escapes.append(
                        EscapeFact(
                            node.lineno,
                            node.col_offset,
                            "call",
                            f"'{ref_name(ref)}()' may carry the value to "
                            "an order-sensitive sink",
                            call_index=index,
                            derived_args=derived_args,
                        )
                    )
                    return

    @staticmethod
    def _collect_names(target: ast.expr, out: set[str]) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                out.add(sub.id)

    # -- parameter sinks -------------------------------------------------
    def _facts_param_sinks(self) -> None:
        """Params that locally reach an order-sensitive sink."""
        params = set(self._info.params) - {"self"}
        if not params:
            return
        derived: set[str] = set(params)
        sinks: set[int] = set()
        index = {name: i for i, name in enumerate(self._info.params)}

        def mentions(node: ast.AST) -> set[str]:
            return {
                sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and sub.id in derived
            }

        body = self._info.node.body
        for _pass in range(2):
            for stmt in ast.walk(
                ast.Module(body=body, type_ignores=[])
            ):
                if isinstance(stmt, ast.Assign):
                    hit = mentions(stmt.value)
                    if hit:
                        for tgt in stmt.targets:
                            self._collect_names(tgt, derived)
                elif isinstance(stmt, ast.Call):
                    func = stmt.func
                    is_sink = (
                        isinstance(func, ast.Attribute)
                        and func.attr in (APPEND_NAMES | EMIT_NAMES)
                    ) or (
                        isinstance(func, ast.Name)
                        and func.id in EMIT_NAMES
                    )
                    if not is_sink:
                        continue
                    for arg in stmt.args:
                        for name in mentions(arg):
                            root = index.get(name)
                            if root is not None:
                                sinks.add(root)
                            else:
                                # A derived alias: attribute every
                                # param that could have fed it.
                                sinks.update(
                                    index[p]
                                    for p in params & derived
                                    if p in index
                                )
        self.facts.local_order_sinks = frozenset(sinks)


def extract_module_facts(
    symbols: ModuleSymbols,
) -> dict[str, FunctionFacts]:
    """Facts for every function of one module, keyed by local name."""
    return {
        local: FactsExtractor(info, symbols).run()
        for local, info in symbols.functions.items()
    }


# ---------------------------------------------------------------------------
# Taint specs
# ---------------------------------------------------------------------------


class TaintSpec:
    """One taint dimension: sources, sanitizers, propagation policy."""

    name = ""

    def param_seed(self, annotation: str) -> bool:
        """Is a parameter with this annotation intrinsically tainted?"""
        return False

    def return_seed(self, annotation: str) -> bool:
        """Is a return with this annotation intrinsically tainted?"""
        return False

    def unknown_call(self, ref: Ref) -> str:
        """Policy for unresolvable callees: taint | clean | propagate."""
        return "clean"

    def propagate_constructor(self) -> bool:
        """Do unknown/known constructors carry argument taint?"""
        return False


class MembershipSpec(TaintSpec):
    """Global participant-set knowledge (the id-only model, paper §3)."""

    name = "membership"

    def unknown_call(self, ref: Ref) -> str:
        # Aliasing and containers preserve membership knowledge:
        # len(members) is n, sorted(members) is the same set, etc.
        return "propagate"

    def propagate_constructor(self) -> bool:
        return True


class FloatSpec(TaintSpec):
    """Float-producing expressions (the exact-quorum-math invariant)."""

    name = "float"

    _TAINTING = frozenset(
        {
            "float",
            "mean",
            "fmean",
            "median",
            "median_low",
            "median_high",
            "stdev",
            "pstdev",
            "variance",
            "pvariance",
            "sqrt",
            "exp",
            "log",
        }
    )
    _PROPAGATING = frozenset({"abs", "sum", "max", "min", "round"})

    def param_seed(self, annotation: str) -> bool:
        return annotation == "float"

    def return_seed(self, annotation: str) -> bool:
        return annotation == "float"

    def unknown_call(self, ref: Ref) -> str:
        name = ref_name(ref)
        if name in self._TAINTING:
            return "taint"
        if ref[0] == "attr" and ref[1] in ("statistics", "math"):
            return "taint"
        if name in self._PROPAGATING:
            return "propagate"
        return "clean"


class UnorderedSpec(TaintSpec):
    """Unordered-collection iteration order (determinism invariant)."""

    name = "unordered"

    _PROPAGATING = frozenset({"list", "tuple", "iter", "reversed"})

    def param_seed(self, annotation: str) -> bool:
        return annotation in SET_ANNOTATIONS

    def return_seed(self, annotation: str) -> bool:
        return annotation in SET_ANNOTATIONS

    def unknown_call(self, ref: Ref) -> str:
        name = ref_name(ref)
        if name in UNORDERED_CALL_NAMES:
            return "taint"
        if name in self._PROPAGATING:
            return "propagate"
        # sorted() and friends impose a total order: clean.
        return "clean"


# ---------------------------------------------------------------------------
# The fixpoint
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TaintValue:
    """Evaluation of a term set: unconditional taint + parameter taint."""

    intrinsic: bool = False
    params: frozenset[int] = frozenset()

    def __or__(self, other: "TaintValue") -> "TaintValue":
        return TaintValue(
            self.intrinsic or other.intrinsic, self.params | other.params
        )

    def __bool__(self) -> bool:
        return self.intrinsic or bool(self.params)


CLEAN = TaintValue()


@dataclass(frozen=True, slots=True)
class Summary:
    """Per-function fixpoint result for one spec."""

    ret: TaintValue = CLEAN
    sink_params: frozenset[int] = frozenset()


class TaintAnalysis:
    """Interprocedural taint for one :class:`TaintSpec`.

    Runs a chaotic-iteration fixpoint over all function facts: each
    round re-evaluates every function's return and sink summaries with
    the current callee summaries, until nothing changes.  The program
    is small (hundreds of functions), so the bound is generous.
    """

    _MAX_ROUNDS = 40

    def __init__(
        self,
        facts: dict[str, FunctionFacts],
        resolver: Resolver,
        spec: TaintSpec,
    ):
        self._facts = facts
        self._resolver = resolver
        self.spec = spec
        self.summaries: dict[str, Summary] = {
            qualname: Summary() for qualname in facts
        }
        self._solve()

    # -- public query surface ------------------------------------------
    def call_values(self, facts: FunctionFacts) -> list[TaintValue]:
        """Taint of each call result in *facts*, in call-index order."""
        return self._function_call_values(facts)

    def evaluate(
        self, facts: FunctionFacts, terms: TermSet
    ) -> TaintValue:
        """Taint of an arbitrary term set inside *facts*."""
        return self._eval_terms(
            facts, terms, self._function_call_values(facts)
        )

    def resolve(self, facts: FunctionFacts, ref: Ref):
        return self._resolver.resolve_ref(facts.module, ref)

    def arg_param_map(
        self, call: CallFact, target: FunctionInfo
    ) -> list[tuple[int, TermSet]]:
        """Pair each argument's terms with the callee parameter index."""
        offset = (
            1
            if target.is_method
            and target.params[:1] == ("self",)
            else 0
        )
        pairs: list[tuple[int, TermSet]] = []
        for position, terms in enumerate(call.args):
            pairs.append((position + offset, terms))
        names = {name: i for i, name in enumerate(target.params)}
        for name, terms in call.kwargs:
            if name in names:
                pairs.append((names[name], terms))
        return [
            (index, terms)
            for index, terms in pairs
            if index < len(target.params)
        ]

    # -- fixpoint internals --------------------------------------------
    def _solve(self) -> None:
        for _round in range(self._MAX_ROUNDS):
            changed = False
            for qualname, facts in self._facts.items():
                summary = self._summarize(facts)
                if summary != self.summaries[qualname]:
                    self.summaries[qualname] = summary
                    changed = True
            if not changed:
                return

    def _summarize(self, facts: FunctionFacts) -> Summary:
        call_values = self._function_call_values(facts)
        ret = self._eval_terms(facts, facts.ret_terms, call_values)
        if self.spec.return_seed(facts.return_annotation):
            ret = ret | TaintValue(intrinsic=True)
        sink_params: set[int] = set()
        if self.spec.name == "unordered":
            sink_params.update(facts.local_order_sinks)
            for call in facts.calls:
                target = self._resolver.resolve_ref(facts.module, call.ref)
                if target is None:
                    continue
                target_summary = self.summaries.get(target.qualname)
                if target_summary is None or not target_summary.sink_params:
                    continue
                for index, terms in self.arg_param_map(call, target):
                    if index in target_summary.sink_params:
                        value = self._eval_terms(facts, terms, call_values)
                        sink_params.update(value.params)
        elif self.spec.name == "float":
            for compare in facts.compares:
                if not compare.countlike:
                    continue
                value = self._eval_terms(
                    facts, compare.terms, call_values
                )
                sink_params.update(value.params)
        return Summary(ret=ret, sink_params=frozenset(sink_params))

    def _function_call_values(
        self, facts: FunctionFacts
    ) -> list[TaintValue]:
        values: list[TaintValue] = []
        for call in facts.calls:
            values.append(self._call_value(facts, call, values))
        return values

    def _call_value(
        self,
        facts: FunctionFacts,
        call: CallFact,
        earlier: list[TaintValue],
    ) -> TaintValue:
        target = self._resolver.resolve_ref(facts.module, call.ref)
        arg_values = [
            self._eval_terms(facts, terms, earlier) for terms in call.args
        ]
        kw_values = {
            name: self._eval_terms(facts, terms, earlier)
            for name, terms in call.kwargs
        }
        if target is not None:
            summary = self.summaries.get(target.qualname, Summary())
            value = (
                TaintValue(intrinsic=True)
                if summary.ret.intrinsic
                else CLEAN
            )
            names = {name: i for i, name in enumerate(target.params)}
            offset = (
                1
                if target.is_method and target.params[:1] == ("self",)
                else 0
            )
            for position, arg_value in enumerate(arg_values):
                if position + offset in summary.ret.params:
                    value = value | arg_value
            for name, kw_value in kw_values.items():
                if names.get(name) in summary.ret.params:
                    value = value | kw_value
            if (
                self.spec.propagate_constructor()
                and self._resolver.ref_is_constructor(
                    facts.module, call.ref
                )
            ):
                for arg_value in arg_values:
                    value = value | arg_value
                for kw_value in kw_values.values():
                    value = value | kw_value
            return value
        policy = self.spec.unknown_call(call.ref)
        if policy == "taint":
            return TaintValue(intrinsic=True)
        if policy == "propagate":
            value = CLEAN
            for arg_value in arg_values:
                value = value | arg_value
            for kw_value in kw_values.values():
                value = value | kw_value
            return value
        return CLEAN

    def _eval_terms(
        self,
        facts: FunctionFacts,
        terms: TermSet,
        call_values: list[TaintValue],
    ) -> TaintValue:
        intrinsic = False
        params: set[int] = set()
        for term in terms:
            kind = term[0]
            if kind == "src":
                if term[1] == self.spec.name:
                    intrinsic = True
            elif kind == "param":
                index = term[1]
                params.add(index)
                annotations = facts.param_annotations
                if index < len(annotations) and self.spec.param_seed(
                    annotations[index]
                ):
                    intrinsic = True
            elif kind == "call":
                index = term[1]
                if index < len(call_values):
                    value = call_values[index]
                    intrinsic = intrinsic or value.intrinsic
                    params.update(value.params)
        return TaintValue(intrinsic, frozenset(params))
