"""Run analysis: stream verdicts, the judge, campaigns, grids, reports.

* :mod:`~repro.analysis.verdicts` — every guarantee the paper proves
  (agreement, validity, the three reliable-broadcast properties, the
  rotor's good round, approximate agreement's range conditions, chain
  prefix/growth) as a fold over a run's event stream, live or
  recorded (``repro judge RUN.jsonl``);
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
from repro.analysis.complexity import classify_growth, fit_line
from repro.analysis.oracle import (
    OracleReport,
    OracleVerdict,
    check_sampled_agreement,
    compare_with_oracle,
)
from repro.analysis.report import format_table
from repro.analysis.timeline import render_timeline

__all__ = [
    "CampaignReport",
    "OracleReport",
    "OracleVerdict",
    "build_specs",
    "check_sampled_agreement",
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
