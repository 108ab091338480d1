"""The repo's benchmark: RunSpec -> monitor verdict, end to end.

``BENCHMARK.json`` at the repository root declares this package; see
``README.md`` beside this file for the metric glossary, the workload
rationale and how to run, trace and compare.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are written down."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
