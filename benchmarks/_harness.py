"""Shared benchmark plumbing: persist a table or figure under ``results/``.

The paper has no empirical tables, so the benchmarks operationalise its
theorems (DESIGN.md §5): the experiment grids (``benchmarks/grid.py``)
and the remaining ``bench_*`` scripts write what EXPERIMENTS.md quotes
under ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

from repro.analysis.report import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit_table(
    name: str, rows, columns=None, title: str | None = None
) -> str:
    """Render, print, and persist one experiment table."""
    text = format_table(rows, columns=columns, title=title or name)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.md").write_text(text)
    print()
    print(text)
    return text


def emit_figure(
    name: str,
    series,
    title: str,
    x_label: str = "x",
    y_label: str = "y",
    width: int = 60,
    height: int = 12,
) -> str:
    """Render, print, and persist one ASCII figure."""
    from repro.analysis.ascii_chart import render_chart

    chart = render_chart(
        series, width=width, height=height,
        x_label=x_label, y_label=y_label,
    )
    text = f"## {title}\n\n```\n{chart}\n```\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.md").write_text(text)
    print()
    print(text)
    return text
