"""Rule registry: every enforced invariant, keyed by stable code.

File rules (phase one) and program rules (phase two) are registered
separately: :func:`all_rules` keeps returning only per-file rules so
existing callers are unaffected, and :func:`all_program_rules` returns
the whole-program R6xx/R7xx families.
"""

from __future__ import annotations

from repro.lint.engine import ProgramRule, Rule
from repro.lint.rules.determinism import (
    DirectRandomImport,
    ModuleRandomCall,
    WallClockCall,
)
from repro.lint.rules.hygiene import (
    ColumnarInternalsAccess,
    CommitteeInternalsAccess,
    InboxInternalsAccess,
    OutboxInProtocol,
    PrivateApiAccess,
    SenderStamping,
)
from repro.lint.rules.id_only import (
    ForbiddenImport,
    GlobalMembershipSurface,
    KnownPopulationParameter,
)
from repro.lint.rules.observability import EventPlaneBypass
from repro.lint.rules.program_async import AwaitSharedState
from repro.lint.rules.program_order import UnorderedEscape
from repro.lint.rules.program_taint import (
    FloatQuorumTaint,
    GlobalKnowledgeTaint,
)
from repro.lint.rules.quorum_math import (
    CeilFloorThreshold,
    FloatDivisionThreshold,
    QuorumFractionLiteral,
)
from repro.lint.rules.scenario_bypass import ScenarioLayerBypass


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [
        ForbiddenImport(),
        GlobalMembershipSurface(),
        KnownPopulationParameter(),
        FloatDivisionThreshold(),
        CeilFloorThreshold(),
        QuorumFractionLiteral(),
        DirectRandomImport(),
        WallClockCall(),
        ModuleRandomCall(),
        OutboxInProtocol(),
        PrivateApiAccess(),
        SenderStamping(),
        InboxInternalsAccess(),
        ColumnarInternalsAccess(),
        CommitteeInternalsAccess(),
        EventPlaneBypass(),
        ScenarioLayerBypass(),
    ]


def all_program_rules() -> list[ProgramRule]:
    """Fresh instances of every whole-program rule, in code order."""
    return [
        GlobalKnowledgeTaint(),
        FloatQuorumTaint(),
        UnorderedEscape(),
        AwaitSharedState(),
    ]


def rules_by_code() -> dict[str, Rule | ProgramRule]:
    out: dict[str, Rule | ProgramRule] = {
        rule.code: rule for rule in all_rules()
    }
    for rule in all_program_rules():
        out[rule.code] = rule
    return out
