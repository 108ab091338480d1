"""Rule registry: every enforced invariant, keyed by stable code."""

from __future__ import annotations

from repro.lint.engine import Rule
from repro.lint.rules.await_state import AwaitSharedState
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
        AwaitSharedState(),
    ]


def rules_by_code() -> dict[str, Rule]:
    return {rule.code: rule for rule in all_rules()}
