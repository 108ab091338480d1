"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations

import pathlib

#: The directory that holds the ``repro`` package: crash locations are
#: reported relative to it, so they read the same in every checkout.
_PACKAGE_PARENT = pathlib.Path(__file__).resolve().parents[1]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A scenario or protocol was configured inconsistently.

    Examples: duplicate node ids, a direct send to a node that never
    contacted the sender, or an adversary count violating an explicit
    resiliency request.
    """


class ProtocolViolation(ReproError):
    """A *correct* protocol implementation broke a model rule.

    The simulator enforces the id-only model's rules for correct nodes
    (no sender forgery, direct sends only to prior contacts).  Byzantine
    strategies are exempt where the model allows it.
    """


class SimulationError(ReproError):
    """The simulation itself failed (e.g. exceeded its round budget)."""


class RoundLimitExceeded(SimulationError):
    """A protocol failed to terminate within the configured round budget."""

    def __init__(self, limit: int, still_running: list[int]):
        self.limit = limit
        self.still_running = list(still_running)
        super().__init__(
            f"round limit {limit} exceeded; nodes still running: "
            f"{sorted(self.still_running)}"
        )


class EventStreamError(ReproError, ValueError):
    """A JSONL event stream cannot be read.

    Raised by :mod:`repro.obs.jsonl`'s readers with the 1-based line
    number of the offending line: malformed JSON, a line that is not an
    object or has no ``topic``, a schema newer than the reader, or a
    ``protocol`` line missing a field.
    """

    def __init__(self, line: int, problem: str):
        self.line = line
        self.problem = problem
        super().__init__(f"events line {line}: {problem}")


class WireError(ReproError, ValueError):
    """A :mod:`repro.net.wire` frame does not decode to one message.

    A ``ValueError``, so a peer's reader drops the connection as for any
    other malformed input.
    """

    def __init__(self, problem: str):
        self.problem = problem
        super().__init__(f"wire frame: {problem}")


class PropertyViolation(ReproError):
    """A checked correctness property (agreement, validity, ...) failed.

    Raised by :mod:`repro.analysis.oracle` when a judged run violates
    one of the paper's guarantees.
    """


def failure_text(exc: BaseException) -> str:
    """Why a run did not finish: ``liveness: <message>`` for a
    :class:`SimulationError` (a blown round budget), else ``crash:
    <Type> at repro/<path>:<line>: <message>`` at the innermost
    traceback frame inside the package."""
    if isinstance(exc, SimulationError):
        return f"liveness: {exc}"
    import traceback  # here, not at start-up: only a crashed run pays

    where = "?"
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = pathlib.Path(frame.filename).resolve()
        if path.is_relative_to(_PACKAGE_PARENT / "repro"):
            relative = path.relative_to(_PACKAGE_PARENT).as_posix()
            where = f"{relative}:{frame.lineno}"
            break
    return f"crash: {type(exc).__name__} at {where}: {exc}"
