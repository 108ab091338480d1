"""Committed benchmark tables stay in step with their committed data."""

import json

from benchmarks._harness import RESULTS_DIR
from benchmarks.bench_engine import TABLE_TITLE, table_rows
from repro.analysis.report import format_table


def test_bench_engine_table_is_rendered_from_its_json():
    payload = json.loads((RESULTS_DIR / "BENCH_engine.json").read_text())
    rendered = format_table(table_rows(payload), title=TABLE_TITLE)
    assert (RESULTS_DIR / "BENCH_engine.md").read_text() == rendered
