"""Monte Carlo campaigns: thousands of seeded RunSpecs, one verdict table.

The campaign driver turns a *base* :class:`~repro.scenario.RunSpec`
into ``runs`` seed-derived specs (splitmix-style mixing of the campaign
seed with the run index — workers never share generator state, so the
scenario list is a pure function of ``(campaign_seed, runs)``), runs
them in a process pool, and aggregates the verdicts of each run's
event stream (:func:`repro.analysis.verdicts.verdicts_for` says which)
into per-monitor violation rates.

The report is byte-deterministic for a given (base spec, campaign
seed, run count) regardless of worker count: specs are derived by
index, workers return ``(index, verdicts, seconds, collector runs)``,
and aggregation sorts by index and puts no wall-clock data in the
report.  Timings go to a :class:`CampaignTiming` the caller hands in —
beside the report, never in it (``repro campaign --out R.json`` writes
them to ``R.timing.json``).  Any violating spec is saved as a JSON
artifact that ``repro run --scenario FILE`` replays directly.

``repro run``, campaigns, the grids of :mod:`repro.analysis.grid`
(``repro sweep``, ``repro matrix`` and the experiment tables) and the
sampled-consensus oracle all take their verdicts from :func:`judge`, so
a replayed artifact reads exactly what the report said.
"""

from __future__ import annotations

import gc
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.analysis.report import format_table
from repro.analysis.verdicts import Judgement
from repro.errors import ReproError, failure_text
from repro.obs.bus import EventBus
from repro.obs.events import RunEnded, RunStarted
from repro.scenario import RunSpec, collector_paused, run_spec
from repro.sim.runner import ScenarioResult

__all__ = [
    "CampaignReport",
    "CampaignTiming",
    "build_specs",
    "derive_seed",
    "evaluate_spec",
    "format_campaign_report",
    "judge",
    "run_campaign",
]

_MASK64 = (1 << 64) - 1


def derive_seed(campaign_seed: int, index: int) -> int:
    """Deterministic per-run seed: splitmix64 finalizer over the pair.

    Pure arithmetic on ``(campaign_seed, index)`` — no shared generator
    to thread through workers — so spec ``index`` gets the same seed no
    matter how the pool partitions the campaign.
    """
    z = (
        campaign_seed * 0x9E3779B97F4A7C15
        + (index + 1) * 0xBF58476D1CE4E5B9
    ) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & 0x7FFFFFFF


def build_specs(
    base: RunSpec, runs: int, campaign_seed: int = 0
) -> list[RunSpec]:
    """The campaign's scenario list: *base* under derived seeds."""
    return [
        replace(base, seed=derive_seed(campaign_seed, index))
        for index in range(runs)
    ]


# ---------------------------------------------------------------------------
# Single-run evaluation (runs inside pool workers — must stay picklable)
# ---------------------------------------------------------------------------
def _judged(
    spec: RunSpec, bus: EventBus
) -> tuple[ScenarioResult | None, Judgement]:
    """Run *spec* on *bus* under a :class:`Judgement` of its events."""
    judgement = Judgement().attach(bus)
    result = None
    try:
        result = run_spec(spec, bus=bus)
    except Exception as exc:
        if not judgement.failed:
            # The run failed where the engine could not say so: before
            # its first round, or after its run-end.
            if judgement.folds is None:
                judgement.on_run_start(
                    RunStarted("sim", spec.seed, spec.to_json_dict())
                )
            judgement.on_run_end(RunEnded(0, error=failure_text(exc)))
    return result, judgement


def judge(
    spec: RunSpec, bus: EventBus
) -> tuple[ScenarioResult | None, dict[str, str | None]]:
    """Run *spec* on *bus* and judge its event stream.

    Returns the finished result (``None`` when the run did not finish)
    and ``verdicts``: name -> None (held) or the violation message —
    what ``repro judge`` reads back from the run's recorded stream.  A
    run that exhausts its round budget is a ``termination`` liveness
    violation, and a run that raises any other exception a
    ``termination`` crash: a finding, never an aborted caller.
    """
    result, judgement = _judged(spec, bus)
    return result, judgement.verdicts()


@collector_paused
def evaluate_spec(spec: RunSpec) -> dict[str, Any]:
    """:func:`judge` one spec on a fresh bus; return a picklable row.

    This call owns the run's lifetime, so the collector pause covers
    all of it: the ``ScenarioResult`` is a local, freed by reference
    counting on return, and the collector resumes on an almost empty
    heap instead of re-traversing the run (DESIGN.md §4).
    """
    result, judgement = _judged(spec, EventBus())
    row = {
        "verdicts": judgement.verdicts(),
        "rounds": None,
        "sends": None,
        "chain_length": None,
    }
    if result is not None:
        row["rounds"] = result.rounds
        row["sends"] = result.metrics.sends_total
        if spec.protocol == "total-order":
            row["chain_length"] = judgement["chain-growth"].longest
    return row


#: A monotonic time source in seconds (``time.perf_counter``): injected
#: by whoever wants timings, so an untimed campaign reads no clock.
Clock = Callable[[], float]


def _collections() -> int:
    """Cyclic-collector runs in this process so far, all generations.

    ``gc.get_stats()`` snapshots the counters before it allocates, and
    nothing here allocates a container before calling it (hence a loop,
    not a generator expression): a collection that the reading itself
    sets off — the collector resuming after a run — is not in the
    reading.
    """
    total = 0
    for stats in gc.get_stats():
        total += stats["collections"]
    return total


def _worker(
    payload: tuple[int, dict, Clock | None],
) -> tuple[int, dict, float | None, int | None]:
    index, doc, clock = payload
    spec = RunSpec.from_json_dict(doc)
    if clock is None:
        return index, evaluate_spec(spec), None, None
    collections = _collections()
    started = clock()
    row = evaluate_spec(spec)
    seconds = clock() - started
    return index, row, seconds, _collections() - collections


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------
def _spans(indexes: list[int]) -> str:
    """Ascending *indexes* as ``0-3, 7, 9-10``."""
    spans: list[list[int]] = []
    for index in indexes:
        if spans and spans[-1][1] == index - 1:
            spans[-1][1] = index
        else:
            spans.append([index, index])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def _save_json(doc: dict, path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


@dataclass
class CampaignReport:
    """Aggregate verdicts of one campaign, JSON-stable."""

    base: dict
    campaign_seed: int
    runs: int
    monitors: dict[str, dict] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    rounds_max: int = 0
    chain_length_max: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation_rate(self, monitor: str) -> float:
        entry = self.monitors[monitor]
        checked = entry["checked"]
        return entry["violations"] / checked if checked else 0.0

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "campaign_seed": self.campaign_seed,
            "runs": self.runs,
            "monitors": {
                name: dict(self.monitors[name])
                for name in sorted(self.monitors)
            },
            "violations": list(self.violations),
            "rounds_max": self.rounds_max,
            "chain_length_max": self.chain_length_max,
        }

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        return _save_json(self.to_json_dict(), path)


@dataclass
class CampaignTiming:
    """Where one campaign's wall-clock went; filled by :func:`run_campaign`.

    ``clock`` is read around each ``evaluate_spec`` (inside the worker
    that runs it, so it must pickle — ``time.perf_counter`` does) and
    around the whole pool.  The report never sees any of it.
    """

    clock: Clock
    workers: int = 1
    #: Scenario list in, sorted outcomes out (pool start-up included).
    wall_s: float = 0.0
    #: Seconds inside ``evaluate_spec``, by spec index.
    spec_s: list[float] = field(default_factory=list)
    #: Cyclic-collector runs (``gc.get_stats()`` delta) across every
    #: ``evaluate_spec``, summed.  A run is paused for its lifetime
    #: (DESIGN.md §4), so anything but 0 means a spec collected by hand.
    collector_runs: int = 0

    @property
    def specs_per_s(self) -> float:
        return len(self.spec_s) / self.wall_s if self.wall_s > 0 else 0.0

    def to_json_dict(self) -> dict:
        import statistics

        ordered = sorted(self.spec_s)
        runs = len(ordered)
        worker_s = sum(ordered)
        wall_s = self.wall_s
        return {
            "runs": runs,
            "workers": self.workers,
            "specs_per_s": self.specs_per_s,
            "spec_s": {
                "p50": statistics.median(ordered),
                # Nearest rank: the ceil(3n/4)-th smallest.
                "p75": ordered[(3 * runs + 3) // 4 - 1],
                "max": ordered[-1],
            }
            if ordered
            else None,
            "wall_s": wall_s,
            "worker_s": worker_s,
            "pool_efficiency": (
                worker_s / (wall_s * self.workers) if wall_s > 0 else 0.0
            ),
            "collector_runs": self.collector_runs,
        }

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        return _save_json(self.to_json_dict(), path)


def run_campaign(
    base: RunSpec,
    runs: int = 1000,
    campaign_seed: int = 0,
    workers: int = 1,
    artifacts_dir: str | pathlib.Path | None = None,
    progress: Callable[[int, int], None] | None = None,
    timing: CampaignTiming | None = None,
) -> CampaignReport:
    """Run *runs* seed-derived copies of *base* and aggregate verdicts.

    ``workers > 1`` fans the scenario list over a process pool; the
    report bytes are identical for any worker count, timed or not.  A
    worker process that dies mid-spec raises :class:`ReproError` naming
    the campaign seed and the specs that did not return.
    When ``artifacts_dir`` is set, every violating spec is saved there
    as a replayable ``violation-<index>.json`` RunSpec file.  When
    *timing* is given, its clock times every spec and the pool.
    """
    specs = build_specs(base, runs, campaign_seed)
    clock = timing.clock if timing is not None else None
    payloads = [
        (index, spec.to_json_dict(), clock)
        for index, spec in enumerate(specs)
    ]
    started = clock() if clock is not None else 0.0
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = max(1, runs // (workers * 8))
        outcomes = []
        with ProcessPoolExecutor(workers) as pool:
            try:
                for outcome in pool.map(_worker, payloads, chunksize=chunk):
                    outcomes.append(outcome)
            except BrokenProcessPool:
                # A worker died mid-spec (OOM kill, os._exit): the pool
                # cannot finish, so say which specs it lost.
                returned = {outcome[0] for outcome in outcomes}
                lost = [i for i in range(runs) if i not in returned]
                raise ReproError(
                    f"campaign seed {campaign_seed}: a worker process died;"
                    f" specs {_spans(lost)} did not return"
                ) from None
    else:
        outcomes = []
        for payload in payloads:
            outcomes.append(_worker(payload))
            if progress is not None:
                progress(len(outcomes), runs)
    outcomes.sort(key=lambda outcome: outcome[0])
    if timing is not None:
        timing.wall_s = clock() - started
        timing.workers = workers
        timing.spec_s = [seconds for _, _, seconds, _ in outcomes]
        timing.collector_runs = sum(delta for _, _, _, delta in outcomes)

    report = CampaignReport(
        base=base.to_json_dict(), campaign_seed=campaign_seed, runs=runs
    )
    if artifacts_dir is not None:
        artifacts_dir = pathlib.Path(artifacts_dir)
    for index, row, *_timing in outcomes:
        if row["rounds"] is not None:
            report.rounds_max = max(report.rounds_max, row["rounds"])
        if row["chain_length"] is not None:
            report.chain_length_max = max(
                report.chain_length_max or 0, row["chain_length"]
            )
        for monitor, violation in sorted(row["verdicts"].items()):
            entry = report.monitors.setdefault(
                monitor, {"checked": 0, "violations": 0}
            )
            entry["checked"] += 1
            if violation is None:
                continue
            entry["violations"] += 1
            record = {
                "index": index,
                "seed": specs[index].seed,
                "monitor": monitor,
                "message": violation,
            }
            if artifacts_dir is not None:
                artifacts_dir.mkdir(parents=True, exist_ok=True)
                artifact = artifacts_dir / f"violation-{index:05d}.json"
                specs[index].save(artifact)
                record["artifact"] = str(artifact)
            report.violations.append(record)
    return report


def format_campaign_report(report: CampaignReport) -> str:
    """The violation-rate table (EXPERIMENTS.md's campaign section)."""
    rows = []
    for name in sorted(report.monitors):
        entry = report.monitors[name]
        rows.append(
            {
                "monitor": name,
                "checked": entry["checked"],
                "violations": entry["violations"],
                "violation rate%": round(
                    100 * report.violation_rate(name), 3
                ),
            }
        )
    base = RunSpec.from_json_dict(report.base)
    title = (
        f"campaign: {base.label()} — {report.runs} runs, "
        f"campaign seed {report.campaign_seed}"
    )
    return format_table(rows, title=title)
