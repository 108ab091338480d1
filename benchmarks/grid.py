"""Write each grid ``specs/<table>.json`` (:mod:`repro.analysis.grid`:
the file, the columns, the claims) to ``results/<table>.md``.

Run (from the repository root)::

    PYTHONPATH=src python -m benchmarks.grid               # every grid
    PYTHONPATH=src python -m benchmarks.grid e3_fast_path  # one grid

Exit 0 when every claim holds, 1 when one does not, 2 when a grid file
is not a well-formed grid (the message names the file).
"""

from __future__ import annotations

import pathlib
import sys

from repro.analysis.grid import load, measure
from repro.errors import ConfigurationError

from benchmarks._harness import emit_table

SPECS_DIR = pathlib.Path(__file__).parent / "specs"


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    paths = [SPECS_DIR / f"{name}.json" for name in names] or sorted(
        SPECS_DIR.glob("*.json")
    )
    grids = []
    for path in paths:
        try:
            grids.append(load(path))
        except (OSError, ConfigurationError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    broken = []
    for grid in grids:
        rows, columns, grid_broken = measure(grid)
        emit_table(grid.name, rows, columns, grid.title)
        broken.extend(grid_broken)
    for claim in broken:
        print(f"claim broken: {claim}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
