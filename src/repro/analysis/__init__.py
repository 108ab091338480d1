"""Run analysis: property checkers, monitors, the judge, and reports.

* :mod:`~repro.analysis.checkers` — machine-checkable versions of every
  guarantee the paper proves (agreement, validity, the three
  reliable-broadcast properties, the rotor's good round, approximate
  agreement's range conditions, chain prefix/growth);
* :mod:`~repro.analysis.monitor` — online monitors that name the round
  a property broke in;
* :mod:`~repro.analysis.campaign` — :func:`judge`, the one verdict per
  spec that every harness uses, and Monte Carlo churn campaigns: many
  seed-derived RunSpecs in a worker pool, per-monitor violation rates;
* :mod:`~repro.analysis.grid` — experiment grids: many judged
  (point, seed) runs, one table and its ``n > 3f`` claims;
* :mod:`~repro.analysis.report` — ASCII tables for EXPERIMENTS.md.
"""

from repro.analysis.campaign import (
    CampaignReport,
    build_specs,
    derive_seed,
    evaluate_spec,
    format_campaign_report,
    judge,
    run_campaign,
)
from repro.analysis.checkers import (
    CheckReport,
    check_agreement,
    check_approx_agreement,
    check_chain_prefix,
    check_parallel_outputs,
    check_reliable_broadcast,
    check_rotor_good_round,
    check_validity,
)
from repro.analysis.complexity import classify_growth, fit_line
from repro.analysis.monitor import (
    AgreementMonitor,
    BoundMonitor,
    ChainConsistencyMonitor,
    RelayMonitor,
    TraceMonitor,
)
from repro.analysis.oracle import (
    OracleReport,
    OracleVerdict,
    check_sampled_agreement,
    compare_with_oracle,
)
from repro.analysis.report import format_table
from repro.analysis.timeline import render_timeline

__all__ = [
    "AgreementMonitor",
    "BoundMonitor",
    "CampaignReport",
    "ChainConsistencyMonitor",
    "CheckReport",
    "OracleReport",
    "OracleVerdict",
    "RelayMonitor",
    "TraceMonitor",
    "build_specs",
    "check_agreement",
    "check_approx_agreement",
    "check_chain_prefix",
    "check_parallel_outputs",
    "check_reliable_broadcast",
    "check_rotor_good_round",
    "check_sampled_agreement",
    "check_validity",
    "classify_growth",
    "compare_with_oracle",
    "derive_seed",
    "evaluate_spec",
    "fit_line",
    "format_campaign_report",
    "format_table",
    "judge",
    "render_timeline",
    "run_campaign",
]
