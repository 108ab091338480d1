"""Self-timing budget for the lint of ``src``.

Every rule must stay cheap enough to run on every commit.  The
committed threshold carries more than 10x headroom over the measured
cost (about 0.5 s on one Xeon core, interpreter startup included), so
the test only trips on an algorithmic regression — a rule that goes
quadratic in the size of a file — never on machine noise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from .conftest import REPO_ROOT

BUDGET_SECONDS = 15.0


def test_full_lint_fits_budget():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < BUDGET_SECONDS, (
        f"lint took {elapsed:.2f}s (budget {BUDGET_SECONDS}s)"
    )
