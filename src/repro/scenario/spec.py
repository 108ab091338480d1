"""The frozen, JSON-portable description of one run.

A :class:`RunSpec` is the single vocabulary every harness speaks: the
CLI, the benchmarks, the oracle, the campaign runner, and the replay
scenarios all *describe* a run as a ``RunSpec`` and *materialize* it
through :func:`repro.scenario.build.materialize`.  Because a spec is
frozen and built only from JSON-native values, any run — including a
campaign run that violated a monitor — can be serialized, committed,
and replayed bit-for-bit with ``repro run --scenario FILE``.

The spec deliberately names things (protocols, input assignments,
adversaries, churn generators) rather than holding callables; the
:mod:`repro.scenario.registry` resolves names to factories at
materialization time.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, fields
from types import UnionType
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError

DEFAULT_ID_SPACE = 10**6


def _frozen_params(value: Mapping[str, Any] | None) -> dict[str, Any]:
    return dict(value) if value else {}


def _is_instance(value: Any, hint: Any) -> bool:
    """Does *value* have the declared type *hint*?  An int is never a
    bool, and a mapping needs keys of the declared key type."""
    if type(hint) is UnionType:
        return any(_is_instance(value, arg) for arg in get_args(hint))
    origin = get_origin(hint)
    if origin is not None:
        key_type = get_args(hint)[0]
        return isinstance(value, origin) and all(
            isinstance(key, key_type) for key in value
        )
    if hint is int and isinstance(value, bool):
        return False
    return isinstance(value, hint)


def _check_types(cls: type, doc: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` naming the first field of *doc*
    whose value is not of the type *cls* declares for it."""
    hints = _FIELD_TYPES[cls]
    for name, value in doc.items():
        hint = hints[name]
        if not _is_instance(value, hint):
            expected = (
                hint.__name__
                if isinstance(hint, type)
                else str(hint).replace("typing.", "")
            )
            raise ConfigurationError(
                f"{cls.__name__} field {name!r} must be {expected},"
                f" got {value!r}"
            )


@dataclass(frozen=True)
class ChurnSpec:
    """A named churn generator plus its parameters.

    ``kind`` is one of the generators registered in
    :mod:`repro.scenario.churn` (``rate``, ``crash-recover``,
    ``bursts``); ``params`` are its JSON-native keyword arguments.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _frozen_params(self.params))

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, Any]) -> "ChurnSpec":
        if not isinstance(doc, Mapping):
            raise ConfigurationError(
                f"RunSpec field 'churn' must be an object, got {doc!r}"
            )
        unknown = set(doc) - {"kind", "params"}
        if unknown:
            raise ConfigurationError(
                f"unknown churn fields: {sorted(unknown)}"
            )
        if "kind" not in doc:
            raise ConfigurationError("churn spec needs a 'kind'")
        kwargs = {"kind": doc["kind"], "params": doc.get("params", {})}
        _check_types(cls, kwargs)
        return cls(**kwargs)


@dataclass(frozen=True)
class RunSpec:
    """One run, declaratively: population, protocol, adversary, churn, seed.

    Attributes:
        protocol: registered protocol name (see
            :data:`repro.scenario.registry.PROTOCOLS`).
        n: total initial population (correct + Byzantine).
        f: Byzantine count within ``n``.
        variant: protocol variant, e.g. ``"full"`` or ``"sampled"``.
        inputs: named input assignment (``"alternating"``,
            ``"supermajority"``, ``"index"``, ``"constant:<json>"``);
            ``None`` uses the protocol's registered default.
        protocol_params: protocol-specific knobs (payloads, event
            cadence, voluntary leave plans), JSON-native.
        adversary: strategy name from :data:`repro.adversary.STRATEGY_BUILDERS`
            (only used when ``f > 0``).
        adversary_params: strategy keyword arguments; the reserved key
            ``wrapped_index`` picks the index the wrapped honest
            protocol is built with (wrapping strategies only).
        churn: optional :class:`ChurnSpec` generating the membership
            schedule.
        seed: master seed — id assignment, engine randomness, and the
            churn stream all derive from it.
        rushing: rushing adversary delivery order.
        max_rounds: round budget.
        until_all_halted: run-loop stop condition; ``None`` uses the
            protocol's registered default.
        enforce_resiliency: check ``n > 3f`` (initially and per churn
            round) and refuse violating configs.
        id_space: sparse node-id universe.
        runtime: which engine materializes the spec (only ``"sim"`` —
            the lockstep simulator — exists today; the field keys
            future asyncio/net runtimes).
    """

    protocol: str
    n: int
    f: int = 0
    variant: str = "full"
    inputs: str | None = None
    protocol_params: Mapping[str, Any] = field(default_factory=dict)
    adversary: str = "silent"
    adversary_params: Mapping[str, Any] = field(default_factory=dict)
    churn: ChurnSpec | None = None
    seed: int = 0
    rushing: bool = False
    max_rounds: int = 200
    until_all_halted: bool | None = None
    enforce_resiliency: bool = True
    id_space: int = DEFAULT_ID_SPACE
    runtime: str = "sim"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "protocol_params", _frozen_params(self.protocol_params)
        )
        object.__setattr__(
            self, "adversary_params", _frozen_params(self.adversary_params)
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Arithmetic sanity; :func:`repro.scenario.build.resolve` adds
        the name lookups."""
        if self.n <= 0:
            raise ConfigurationError("n must be positive")
        if self.f < 0:
            raise ConfigurationError("f must be >= 0")
        if self.f >= self.n:
            raise ConfigurationError(
                f"f={self.f} leaves no correct node in n={self.n}"
            )
        if self.enforce_resiliency and not self.n > 3 * self.f:
            raise ConfigurationError(
                f"n={self.n}, f={self.f} violates n > 3f; set "
                "enforce_resiliency=False to run anyway"
            )
        if self.max_rounds <= 0:
            raise ConfigurationError("max_rounds must be positive")
        if self.id_space < self.n:
            raise ConfigurationError(
                f"id_space={self.id_space} cannot hold n={self.n} "
                "distinct ids"
            )
        if self.runtime != "sim":
            raise ConfigurationError(
                f"unknown runtime {self.runtime!r}; only 'sim' exists"
            )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """A plain dict with JSON-native values, stable key order."""
        doc: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "churn":
                value = value.to_json_dict() if value else None
            elif isinstance(value, Mapping):
                value = dict(value)
            doc[spec_field.name] = value
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, Any]) -> "RunSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec fields: {sorted(unknown)}"
            )
        if "protocol" not in doc or "n" not in doc:
            raise ConfigurationError("a RunSpec needs 'protocol' and 'n'")
        kwargs = dict(doc)
        churn = kwargs.get("churn")
        if churn is not None and not isinstance(churn, ChurnSpec):
            kwargs["churn"] = ChurnSpec.from_json_dict(churn)
        _check_types(cls, kwargs)
        return cls(**kwargs)

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=False)
            + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RunSpec":
        """The spec saved at *path*; :class:`ConfigurationError` when the
        file is not JSON or not a well-typed RunSpec object."""
        try:
            doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigurationError("not a RunSpec object")
        return cls.from_json_dict(doc)

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Human-readable one-liner for CLI output and reports."""
        parts = [self.protocol]
        if self.variant != "full":
            parts.append(f"({self.variant})")
        parts.append(f"n={self.n} f={self.f}")
        if self.f:
            parts.append(f"adversary={self.adversary}")
        if self.churn is not None:
            parts.append(f"churn={self.churn.kind}")
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


#: Each spec class's declared field types, resolved once.
_FIELD_TYPES = {cls: get_type_hints(cls) for cls in (ChurnSpec, RunSpec)}
