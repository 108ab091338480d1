"""``repro.lint`` — static enforcement of the paper's model invariants.

The reproduction's correctness claims rest on discipline that Python's
type system cannot see: correct-node code must never consult global
knowledge of ``n`` or ``f`` (only the locally observed ``n_v``), quorum
conditions must use exact integer arithmetic, every stochastic choice
must flow through the seeded RNG, and protocols must speak through
:class:`~repro.sim.node.NodeApi` rather than stamping wire messages
themselves.  This package makes those invariants machine-checked
properties of the source tree.

Usage::

    python -m repro.lint src                 # lint the tree
    python -m repro.lint --format=json src   # machine-readable output
    python -m repro.lint --list-rules        # what is enforced

Every rule sees one parsed file at a time.  A finding is silenced one
way only, by an inline directive with a justification (see
``docs/lint.md``): ``repro-lint: disable=<code> -- reason`` on or above
the flagged line, or ``disable-file=<code> -- reason`` for the whole
file.

The rule families:

* **R1xx — id-only model** (``repro.core``/``repro.baselines``): no
  global-membership surfaces outside ``ViewTracker``/``NodeApi``; the
  known-population parameter ban (R103) covers ``repro.core`` only,
  since the ``repro.baselines`` comparators know ``n`` and ``f`` by
  definition.
* **R2xx — integer quorum math**: thresholds compare via
  ``3 * count >= n_v``, never float division or fraction literals.
* **R3xx — determinism**: randomness through ``repro.sim.rng``, no wall
  clocks outside ``repro.net``/``repro.analysis``.
* **R4xx — protocol hygiene**: protocols never touch ``Outbox`` or
  stamp sender ids; the network does.
* **R5xx — event-plane discipline**: protocols emit semantic events
  only through ``NodeApi.emit``; the observability plumbing
  (``EventBus``, ``Trace``, ``Metrics``, sinks) belongs to the
  runtimes (``repro.obs``, docs/observability.md).
* **R7xx — async runtime**: stale check-then-act on engine-shared
  state across ``await`` points (R701).
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, format_json, format_text
from repro.lint.engine import (
    FileContext,
    LintResult,
    Rule,
    run_paths,
)
from repro.lint.rules import all_rules, rules_by_code
from repro.lint.sarif import format_sarif

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintResult",
    "Rule",
    "all_rules",
    "format_json",
    "format_sarif",
    "format_text",
    "rules_by_code",
    "run_paths",
]
