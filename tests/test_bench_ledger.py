"""Committed benchmark tables stay in step with their committed data."""

import json

from benchmarks._harness import RESULTS_DIR
from benchmarks.bench_engine import (
    TABLE_TITLE,
    check_economy_against_baseline,
    table_rows,
)
from repro.analysis.report import format_table


def test_bench_engine_table_is_rendered_from_its_json():
    payload = json.loads((RESULTS_DIR / "BENCH_engine.json").read_text())
    rendered = format_table(table_rows(payload), title=TABLE_TITLE)
    assert (RESULTS_DIR / "BENCH_engine.md").read_text() == rendered


def test_economy_check_gates_the_materialized_count(tmp_path):
    def payload(**rows):
        return {
            "workloads": [
                {"workload": name, "results": [{"n": 50, **row}]}
                for name, row in rows.items()
            ]
        }

    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            payload(
                pc={"materialized_messages": 100, "messages_per_decision": 9},
                drain={"materialized_messages": 0},
            )
        )
    )
    same = payload(
        pc={"materialized_messages": 110, "messages_per_decision": 9},
        drain={"materialized_messages": 0},
    )
    assert check_economy_against_baseline(same, baseline) == 0
    for grown in (
        payload(pc={"materialized_messages": 111}),
        payload(drain={"materialized_messages": 1}),
        payload(pc={"messages_per_decision": 10}),
    ):
        assert check_economy_against_baseline(grown, baseline) == 1
