"""Shared fixtures for the lint-suite tests.

``lint_tree`` materializes a fake source tree (paths mimic the
``repro/<layer>/...`` layout, which is how rules scope themselves) and
runs the full rule set over it.  ``lint_cli`` runs the real
``python -m repro.lint`` subprocess for exit-code and formatting tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import all_rules, run_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


@pytest.fixture
def lint_tree(tmp_path):
    """Lint a dict of {relative path: source} and return the result."""

    def _lint(files, select=None):
        root = write_tree(tmp_path / "tree", files)
        rules = all_rules()
        if select is not None:
            rules = [rule for rule in rules if rule.code in select]
        return run_paths([root], rules)

    return _lint


@pytest.fixture
def lint_cli():
    """Run ``python -m repro.lint`` and return the CompletedProcess."""

    def _run(*args, cwd=REPO_ROOT):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    return _run
