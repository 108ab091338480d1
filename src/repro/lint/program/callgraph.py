"""Name resolution: call references to program-wide functions.

Call sites are recorded by the dataflow extractor as *references* — the
callee as written, before any cross-module knowledge is applied:

* ``("local", name)`` — a plain name (``helper(...)``)
* ``("method", class_name, meth)`` — ``self.meth(...)`` or a call on a
  local whose class is known (constructor call or annotation)
* ``("attr", base, attr)`` — ``base.attr(...)`` with a plain-name base
  (an imported module alias, an imported class, a local class)
* ``("opaque", name)`` — anything deeper (``a.b.c(...)``); only the
  terminal name survives, for the heuristic taint hooks

The :class:`Resolver` turns references into :class:`FunctionInfo`
targets, following re-export chains (``from .quorum import X`` in a
package ``__init__`` and onward) up to a fixed depth so import
indirection cannot hide a flow.
"""

from __future__ import annotations

from repro.lint.program.symbols import ClassInfo, FunctionInfo, ModuleSymbols

#: Re-export chains longer than this are cut (cycles, pathological trees).
_MAX_HOPS = 12

Ref = tuple


class Resolver:
    """Resolve written names to program-wide functions and classes."""

    def __init__(self, modules: dict[str, ModuleSymbols]):
        self._modules = modules

    # ------------------------------------------------------------------
    def resolve_symbol(
        self, module: str, name: str, _hops: int = 0
    ) -> FunctionInfo | ClassInfo | ModuleSymbols | None:
        """What *name* means inside *module*, across re-exports."""
        if _hops > _MAX_HOPS:
            return None
        symbols = self._modules.get(module)
        if symbols is None:
            return None
        if name in symbols.functions:
            return symbols.functions[name]
        if name in symbols.classes:
            return symbols.classes[name]
        if name in symbols.aliases:
            return self.resolve_symbol(
                module, symbols.aliases[name], _hops + 1
            )
        binding = symbols.imports.get(name)
        if binding is not None:
            if not binding.symbol:
                return self._modules.get(binding.module)
            resolved = self.resolve_symbol(
                binding.module, binding.symbol, _hops + 1
            )
            if resolved is not None:
                return resolved
            # ``from a import b`` where ``b`` is the submodule ``a.b``.
            return self._modules.get(f"{binding.module}.{binding.symbol}")
        return None

    def resolve_ref(self, module: str, ref: Ref) -> FunctionInfo | None:
        """Resolve a call reference to its target function, if knowable."""
        kind = ref[0]
        if kind == "local":
            target = self.resolve_symbol(module, ref[1])
            if isinstance(target, FunctionInfo):
                return target
            if isinstance(target, ClassInfo):
                return target.methods.get("__init__")
            return None
        if kind == "method":
            _, class_name, meth = ref
            target = self.resolve_symbol(module, class_name)
            if isinstance(target, ClassInfo):
                found = target.methods.get(meth)
                if found is not None:
                    return found
                # One level of base-class lookup by written base name.
                for base in target.bases:
                    base_cls = self.resolve_symbol(module, base)
                    if (
                        isinstance(base_cls, ClassInfo)
                        and meth in base_cls.methods
                    ):
                        return base_cls.methods[meth]
            return None
        if kind == "attr":
            _, base, attr = ref
            target = self.resolve_symbol(module, base)
            if isinstance(target, ModuleSymbols):
                found = target.functions.get(attr)
                if found is not None:
                    return found
                cls = target.classes.get(attr)
                if cls is not None:
                    return cls.methods.get("__init__")
                return None
            if isinstance(target, ClassInfo):
                return target.methods.get(attr)
            return None
        return None

    def ref_is_constructor(self, module: str, ref: Ref) -> bool:
        """True when the reference names a known class (instance result)."""
        if ref[0] == "local":
            return isinstance(
                self.resolve_symbol(module, ref[1]), ClassInfo
            )
        if ref[0] == "attr":
            target = self.resolve_symbol(module, ref[1])
            if isinstance(target, ModuleSymbols):
                return ref[2] in target.classes
        return False


def ref_name(ref: Ref) -> str:
    """Terminal written name of a reference (for messages and hooks)."""
    if ref[0] == "local":
        return ref[1]
    return ref[-1]
