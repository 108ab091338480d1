"""The repository itself must satisfy its own invariants (tier-1).

``python -m repro.lint src benchmarks`` exits 0 with every rule on;
``src/`` needs no directive at all, and the benchmarks' exemptions are
file-scoped, justified, and pinned to an explicit table so the backlog
of scripts not yet ported to ``RunSpec`` can only shrink in review.
"""

from __future__ import annotations

from repro.lint import Diagnostic, all_rules, run_paths
from repro.lint.engine import discover_files, load_context

from .conftest import REPO_ROOT

SRC = REPO_ROOT / "src"
BENCHMARKS = REPO_ROOT / "benchmarks"

#: Every ``disable-file`` directive under benchmarks/, by file.  R502:
#: the script still builds its populations by hand instead of through a
#: RunSpec.  R302: a benchmark measures wall time.
EXEMPT = {
    "bench_ablations.py": {"R502"},
    "bench_e11_applications.py": {"R502"},
    "bench_e12_clock_sync.py": {"R502"},
    "bench_e4_approx.py": {"R502"},
    "bench_e7_parallel.py": {"R502"},
    "bench_e9_baselines.py": {"R502"},
    "bench_engine.py": {"R302", "R502"},
    "bench_scale.py": {"R502"},
    "bench_synchrony_erosion.py": {"R502"},
    "e2e/clock.py": {"R302"},
}


def _suppressions(root):
    for path in discover_files([root]):
        ctx = load_context(path)
        if isinstance(ctx, Diagnostic):  # pragma: no cover
            continue
        for sup in ctx.suppressions:
            yield path, sup


def test_src_and_benchmarks_are_clean():
    result = run_paths([SRC, BENCHMARKS], all_rules())
    rendered = "\n".join(d.render() for d in result.diagnostics)
    assert result.ok, f"repro.lint found violations:\n{rendered}"


def test_cli_exits_zero_on_repo(lint_cli):
    proc = lint_cli("src", "benchmarks")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_inline_suppression_is_justified():
    unjustified = [
        f"{path}:{sup.line}"
        for root in (SRC, BENCHMARKS)
        for path, sup in _suppressions(root)
        if not sup.reason
    ]
    assert not unjustified, (
        "suppressions without '-- justification': "
        + ", ".join(unjustified)
    )


def test_src_carries_no_directives():
    # The library satisfies every rule outright; the only directives
    # under src/ are the docstring examples in suppressions.py.
    stray = [
        f"{path}:{sup.line}"
        for path, sup in _suppressions(SRC)
        if path.name != "suppressions.py"
    ]
    assert not stray, "unexpected suppressions: " + ", ".join(stray)


def test_benchmark_exemptions_match_table():
    found: dict[str, set[str]] = {}
    for path, sup in _suppressions(BENCHMARKS):
        rel = path.relative_to(BENCHMARKS).as_posix()
        assert sup.file_scoped, f"line-scoped directive in {rel}"
        found.setdefault(rel, set()).update(sup.codes)
    assert found == EXEMPT
