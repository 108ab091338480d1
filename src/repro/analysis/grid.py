"""Experiment grids: the one aggregator of every table of judged runs.

A grid is RunSpec points, the override keys that name them, and a seed
count; :func:`measure` judges every (point, seed) with
:func:`~repro.analysis.campaign.evaluate_spec`.  A grid file
(:func:`load`, ``benchmarks/specs/<table>.json``) holds a ``title``, a
``base`` RunSpec, ``points`` — field overrides on the base, a dotted
key such as ``churn.params.count`` reaching into a nested field — and
``seeds``; ``repro sweep`` and ``repro matrix`` build theirs in memory.

The columns are fixed: the override keys; ``<verdict> ok%`` per
verdict; ``rounds(mean)``, ``rounds(max)`` and ``sends(mean)`` over the
runs that finished (``-`` when none did); ``chain length(max)`` when
the runs report one.  So are the claims: a point with ``n > 3f`` holds
every verdict on every seed, a point outside the model shows a
violation (a round budget is the point's ``max_rounds``).
"""

from __future__ import annotations

import copy
import json
import pathlib
from dataclasses import dataclass, replace

from repro.analysis.campaign import evaluate_spec
from repro.errors import ConfigurationError
from repro.scenario import RunSpec, resolve

_FIELDS = ("title", "base", "points", "seeds")


@dataclass(frozen=True)
class Grid:
    name: str
    title: str
    #: The override keys, in first-seen order: the leading columns.
    keys: tuple[str, ...]
    specs: tuple[RunSpec, ...]
    seeds: int

    def __post_init__(self) -> None:
        """:class:`ConfigurationError` unless the grid can run: points,
        a positive integer seed count, and every point runnable."""
        if not (self.specs and type(self.seeds) is int and self.seeds > 0):
            raise ConfigurationError(
                "a grid needs a non-empty list of points and a positive"
                " integer seeds"
            )
        for index, spec in enumerate(self.specs):
            try:
                resolve(spec)
            except ConfigurationError as exc:
                raise ConfigurationError(f"point {index}: {exc}") from None


def _parent(doc: dict, key: str) -> tuple[dict, str]:
    """The mapping that holds dotted *key* in *doc*, and its last part."""
    *parents, last = key.split(".")
    for part in parents:
        doc = doc[part]
    if not isinstance(doc, dict):
        raise KeyError(key)
    return doc, last


def load(path: pathlib.Path) -> Grid:
    """The grid at *path*; :class:`ConfigurationError` if it is malformed."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict) or sorted(doc) != sorted(_FIELDS):
        raise ConfigurationError(f"a grid has exactly the keys {_FIELDS}")
    title, base, points, seeds = (doc[key] for key in _FIELDS)
    if not (
        isinstance(title, str)
        and isinstance(base, dict)
        and isinstance(points, list)
        and all(isinstance(point, dict) for point in points)
    ):
        raise ConfigurationError(
            "a grid needs a string title, an object base and a list of"
            " object points"
        )
    specs = []
    for index, point in enumerate(points):
        spec_doc = copy.deepcopy(base)
        try:
            for key, value in point.items():
                parent, last = _parent(spec_doc, key)
                parent[last] = value
            specs.append(RunSpec.from_json_dict(spec_doc))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"point {index}: the base spec has no field {exc}"
            ) from None
        except ConfigurationError as exc:
            raise ConfigurationError(f"point {index}: {exc}") from None
    keys = tuple(dict.fromkeys(key for point in points for key in point))
    return Grid(path.stem, title, keys, tuple(specs), seeds)


def _mean(values: list) -> float | str:
    return round(sum(values) / len(values), 1) if values else "-"


def measure(grid: Grid) -> tuple[list[dict], list[str], list[str]]:
    """Judge every (point, seed): ``(rows, columns, broken claims)``."""
    rows: list[dict] = []
    columns = dict.fromkeys(grid.keys)
    broken = []
    for spec in grid.specs:
        doc = spec.to_json_dict()
        row = {}
        for key in grid.keys:
            parent, last = _parent(doc, key)
            row[key] = parent[last]
        runs = [
            evaluate_spec(replace(spec, seed=seed))
            for seed in range(grid.seeds)
        ]
        names = dict.fromkeys(name for run in runs for name in run["verdicts"])
        held = {
            name: sum(run["verdicts"].get(name, "") is None for run in runs)
            for name in names
        }
        for name in names:
            row[f"{name} ok%"] = round(100 * held[name] / len(runs), 1)
        finished = [run for run in runs if run["rounds"] is not None]
        rounds = [run["rounds"] for run in finished]
        row["rounds(mean)"] = _mean(rounds)
        row["rounds(max)"] = max(rounds, default="-")
        row["sends(mean)"] = _mean([run["sends"] for run in finished])
        chains = [run["chain_length"] for run in finished]
        if chains and None not in chains:
            row["chain length(max)"] = max(chains)
        columns.update(dict.fromkeys(row))
        rows.append(row)

        all_held = all(count == len(runs) for count in held.values())
        where = f"{grid.name} point {len(rows) - 1}"
        if spec.n > 3 * spec.f and not all_held:
            broken.append(f"{where}: n > 3f but a verdict was violated")
        elif spec.n <= 3 * spec.f and all_held:
            broken.append(f"{where}: n <= 3f but no verdict was violated")
    return rows, list(columns), broken
