"""Round-engine hot-path benchmark: all-broadcast and consensus.

The simulator's hot loop is staging, delivery, and quorum counting.
The engine stages O(logical sends) entries per round — one shared
``Message`` per broadcast, resolved to recipients at delivery time —
where the pre-rewrite engine staged one ``(sender, send)`` tuple per
*recipient* (O(n²) churn per round).  On top of that queue, all-broadcast
recipients of a round now alias one shared ``InboxIndex``, so per-kind
buckets and distinct-sender tallies are built once per round, not once
per node.

On top of both, the columnar round plane stores a round's broadcasts as
interned-payload columns; inbox indexes and quorum tallies materialize
lazily from them, which is what lets the protocol workloads run at
n ∈ {1000, 5000, 10000}.

Six workloads:

* ``all-broadcast`` — one broadcast per node per round at
  n ∈ {50, 200, 800}: pure engine overhead, no inbox queries;
* ``consensus`` — a full all-correct :class:`EarlyConsensus` run with
  split 0/1 inputs at n up to 10000: the quorum-counting path the
  shared index, the quorum-tally plane, and the columnar round plane
  amortize;
* ``parallel-consensus`` — a full all-correct :class:`ParallelConsensus`
  run over a few dozen instances at n up to 10000: per-instance vote
  bases derived once per round on the shared index, counted by every
  node;
* ``sampled-consensus`` / ``sampled-parallel-consensus`` — the same
  decisions reached by a Θ(log² n) committee with implicit outcome
  adoption (:mod:`repro.core.implicit_agreement`): the full-broadcast
  rows directly above them are the same-run baseline their
  ``messages_per_decision`` is judged against;
* ``byz-consensus`` — the same protocol against ``(n - 1) // 3``
  rushing equivocators at n ∈ {100, 400}, built from a ``RunSpec``:
  Byzantine direct-send fan-outs, where staging and delivering
  multicasts dominate and counting does not.

Each row reports rounds/sec, *logical* deliveries/sec (staged entries ×
recipients — the classical message-complexity figure, not work done),
``materialized_messages`` (Message objects the columnar plane actually
built — the honest work figure), staged entries vs logical deliveries
per round, the decision economy (decisions, messages/decision), whether
tracemalloc was on for the row, its peak, and the engine's per-phase
time split from ``Metrics``.  Tracemalloc roughly halves engine
throughput, so rows above ``TRACEMALLOC_MAX_N`` run with it off
(``tracemalloc: false``, ``peak_traced_kib`` null) and only rows with
the same ``tracemalloc`` flag are throughput-comparable; pass
``--no-tracemalloc`` to disable it everywhere.

Results go to ``results/BENCH_engine.json`` (and a table in
``results/BENCH_engine.md``).  CI runs ``python benchmarks/bench_engine.py
--sizes 50 --check results/BENCH_engine_baseline.json`` as a non-gating
perf smoke over the workloads: it fails only on a
>``PERF_SMOKE_MAX_SLOWDOWN``× rounds/sec regression against the
committed baseline.  ``--check-economy`` additionally fails when a
row's ``messages_per_decision`` or ``materialized_messages`` exceeds the
committed baseline's by more than ``ECONOMY_MAX_INCREASE``×;
``--agreement-seeds N`` reruns the
sampled-vs-oracle agreement check (:mod:`repro.analysis.oracle`) over N
seeds and records the verdict in the JSON.
"""

# repro-lint: disable-file=R302 -- a benchmark measures wall time
# repro-lint: disable-file=R502 -- assembles its runs by hand, not via RunSpec

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import tracemalloc

from repro.core.committee import committee_size
from repro.core.consensus import EarlyConsensus
from repro.core.implicit_agreement import (
    CommitteeConsensus,
    CommitteeParallelConsensus,
)
from repro.core.parallel_consensus import ParallelConsensus
from repro.sim.network import SyncNetwork
from repro.sim.node import Inbox, NodeApi, Protocol

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_SIZES = (50, 200, 800, 1000, 5000, 10000)
#: Round budget per population size: enough rounds to dominate setup
#: cost, small enough that n=800 stays in CI-smoke territory.
ROUNDS_FOR = {50: 60, 200: 30, 800: 6}
#: The all-broadcast drain is pure engine overhead; larger sizes add no
#: information beyond what the protocol workloads measure.
ENGINE_MAX_N = 800
#: The protocol workloads decide in a fixed handful of phases for
#: all-correct inputs, so population scales to the columnar plane's
#: target range.
CONSENSUS_MAX_N = 10000
#: Generous round budget — the split-input all-correct run decides in a
#: handful of phases.
CONSENSUS_ROUND_LIMIT = 200
#: Instances submitted to the parallel-consensus workload: enough that
#: per-instance work (vote bases, rotor cursors, repr-sorted execution
#: order) dominates, small enough for the CI smoke.
PARALLEL_INSTANCES = 24
PARALLEL_MAX_N = 10000
PARALLEL_ROUND_LIMIT = 400
#: Tracemalloc roughly halves throughput and its peak is dominated by
#: the (size-independent) interned columns anyway; rows above this
#: population run untraced, report ``peak_traced_kib: null`` and
#: ``tracemalloc: false``.  500 keeps the 800-row untraced so every
#: n >= 800 row is throughput-comparable with the n >= 1000 ones
#: (at 800 the traced row used to read ~3.5x slower than n=1000).
TRACEMALLOC_MAX_N = 500
#: CI perf-smoke tolerance: a run must stay within this factor of the
#: committed baseline's rounds/sec at every shared (workload, n) pair.
#: 2x absorbs shared-runner noise while still catching real order-of-
#: magnitude regressions; re-baseline with ``--baseline-out`` whenever a
#: deliberate engine change moves the numbers.
PERF_SMOKE_MAX_SLOWDOWN = 2.0
#: CI economy-smoke tolerance: ``messages_per_decision`` and
#: ``materialized_messages`` are counted (deterministic) figures, so the
#: allowance is thin — 1.1x catches any real fan-out regression in the
#: sampled path, and any sub-inbox that goes back to building the
#: round's Message objects.
ECONOMY_MAX_INCREASE = 1.1
#: The CI-smoke baseline additionally pins the sampled-consensus
#: economy at this population (the satellite row next to n=50).
ECONOMY_ANCHOR_N = 5000
#: Population of the sampled-vs-oracle agreement sweep: big enough that
#: the committee (~98 of 120) is a strict subset, small enough that
#: 50+ paired runs stay in benchmark territory.
AGREEMENT_POPULATION = 120
#: The Byzantine row's logical sends grow as n³ (43 M at n=400, about
#: 430 MiB of queued fan-out pointers in the widest round); the next
#: DEFAULT_SIZES step would be 8x that.
BYZ_MAX_N = 400


class AllBroadcast(Protocol):
    """The hot-path workload: one broadcast per node per round."""

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        api.broadcast("beat", api.round % 7)


def _run_and_measure(net: SyncNetwork, run, trace: bool = True) -> dict:
    def drive():
        run(net)
        return net

    return _measure(drive, trace)[0]


def _measure(drive, trace: bool = True) -> tuple[dict, object]:
    """Time ``drive()`` — it runs to completion and returns the finished
    run, anything with a ``.metrics`` — into ``(result row, that run)``."""
    if trace:
        tracemalloc.start()
    start = time.perf_counter()
    outcome = drive()
    elapsed = time.perf_counter() - start
    if trace:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    else:
        peak = None
    metrics = outcome.metrics
    staged_per_round = metrics.staged_total / metrics.rounds
    deliveries_per_round = metrics.deliveries_total / metrics.rounds
    row = {
        "rounds": metrics.rounds,
        "rounds_per_sec": round(metrics.rounds / elapsed, 2),
        # Logical deliveries = staged entries × recipients — the
        # classical message-complexity figure.  On the columnar path
        # nothing per-recipient is allocated for them; the honest
        # work-done figure is materialized_messages below.
        "logical_deliveries_per_sec": round(
            metrics.deliveries_total / elapsed
        ),
        "materialized_messages": metrics.materialized_messages,
        "staged_entries_per_round": round(staged_per_round, 1),
        "logical_deliveries_per_round": round(deliveries_per_round, 1),
        # The per-recipient engine staged one tuple per delivery; the
        # shared-queue engine stages one entry per logical send.
        "alloc_reduction_vs_per_recipient": round(
            deliveries_per_round / staged_per_round, 1
        ),
        "sends_total": metrics.sends_total,
        "tracemalloc": trace,
        "peak_traced_kib": None if peak is None else round(peak / 1024),
        "engine_time_by_phase": {
            phase: round(seconds, 4)
            for phase, seconds in sorted(
                metrics.engine_time_by_phase.items()
            )
        },
    }
    if metrics.decisions:
        row["decisions"] = metrics.decisions
        row["messages_per_decision"] = round(
            metrics.messages_per_decision, 2
        )
    return row, outcome


def _trace_for(n: int, tracing: bool) -> bool:
    """Tracemalloc policy: off when disabled or the population is large."""
    return tracing and n <= TRACEMALLOC_MAX_N


def measure_engine(
    n: int, rounds: int | None = None, seed: int = 1, tracing: bool = True
) -> dict:
    rounds = rounds or ROUNDS_FOR.get(n, 30)
    net = SyncNetwork(seed=seed, clock=time.perf_counter)
    for index in range(n):
        net.add_correct(1000 + index, AllBroadcast())
    row = _run_and_measure(
        net,
        lambda network: network.run(rounds, until_all_halted=False),
        trace=_trace_for(n, tracing),
    )
    return {"n": n, **row}


def measure_consensus(n: int, seed: int = 1, tracing: bool = True) -> dict:
    """A full all-correct EarlyConsensus run with split 0/1 inputs.

    Unlike the all-broadcast drain, every node here *queries* its inbox
    (payload tallies, sender sets, per-kind filters) every round — the
    exact shape the shared per-round index computes once for all n
    recipients.
    """
    net = SyncNetwork(seed=seed, clock=time.perf_counter)
    for index in range(n):
        net.add_correct(1000 + index, EarlyConsensus(index % 2))
    row = _run_and_measure(
        net,
        lambda network: network.run(CONSENSUS_ROUND_LIMIT),
        trace=_trace_for(n, tracing),
    )
    outputs = set(net.outputs().values())
    assert len(outputs) == 1, "consensus workload failed to agree"
    return {"n": n, "decision": outputs.pop(), **row}


def measure_parallel(n: int, seed: int = 1, tracing: bool = True) -> dict:
    """A full all-correct ParallelConsensus run over a few dozen ids.

    Every node submits the same instance ids in the same round (the
    phase-alignment requirement), each id with a common value, so every
    one of the ``PARALLEL_INSTANCES`` instances runs to a real output.
    This is the workload the quorum-tally plane targets: without it,
    every node rebuilds every instance's vote tally from the same
    shared broadcasts each round.
    """
    net = SyncNetwork(seed=seed, clock=time.perf_counter)
    for index in range(n):
        inputs = {
            f"id{k:02d}": k % 2 for k in range(PARALLEL_INSTANCES)
        }
        net.add_correct(1000 + index, ParallelConsensus(inputs))
    row = _run_and_measure(
        net,
        lambda network: network.run(PARALLEL_ROUND_LIMIT),
        trace=_trace_for(n, tracing),
    )
    outputs = set(net.outputs().values())
    assert len(outputs) == 1, "parallel-consensus workload failed to agree"
    return {
        "n": n,
        "instances": PARALLEL_INSTANCES,
        "decided_pairs": len(outputs.pop()),
        **row,
    }


def measure_sampled_consensus(
    n: int, seed: int = 1, tracing: bool = True
) -> dict:
    """The committee-sampled variant of the ``consensus`` workload.

    Same population, same split 0/1 inputs, same seed — but only the
    Θ(log² n) committee runs Algorithm 3; everyone else broadcasts one
    ``hello``, then idles until the implicit-agreement quorum of
    ``decision`` announcements arrives.  ``messages_per_decision`` on
    this row vs the full-broadcast ``consensus`` row at the same n is
    the whole point of the variant.
    """
    net = SyncNetwork(seed=seed, clock=time.perf_counter)
    for index in range(n):
        net.add_correct(
            1000 + index,
            CommitteeConsensus(index % 2, sampling_seed=seed),
        )
    row = _run_and_measure(
        net,
        lambda network: network.run(CONSENSUS_ROUND_LIMIT),
        trace=_trace_for(n, tracing),
    )
    outputs = set(net.outputs().values())
    assert len(outputs) == 1, "sampled-consensus workload failed to agree"
    return {
        "n": n,
        "committee": committee_size(n),
        "decision": outputs.pop(),
        **row,
    }


def measure_sampled_parallel(
    n: int, seed: int = 1, tracing: bool = True
) -> dict:
    """The committee-sampled variant of ``parallel-consensus``.

    Every node holds the same input pairs (the phase-alignment shape);
    committee members submit them to a fixed-membership machine and
    broadcast the sorted output tuple once, everyone else adopts it.
    """
    net = SyncNetwork(seed=seed, clock=time.perf_counter)
    inputs = {f"id{k:02d}": k % 2 for k in range(PARALLEL_INSTANCES)}
    for index in range(n):
        net.add_correct(
            1000 + index,
            CommitteeParallelConsensus(inputs, sampling_seed=seed),
        )
    row = _run_and_measure(
        net,
        lambda network: network.run(PARALLEL_ROUND_LIMIT),
        trace=_trace_for(n, tracing),
    )
    outputs = set(net.outputs().values())
    assert len(outputs) == 1, (
        "sampled-parallel-consensus workload failed to agree"
    )
    return {
        "n": n,
        "committee": committee_size(n),
        "instances": PARALLEL_INSTANCES,
        "decided_pairs": len(outputs.pop()),
        **row,
    }


def measure_byz_consensus(
    n: int, seed: int = 1, tracing: bool = True
) -> dict:
    """Consensus against ``f = (n - 1) // 3`` rushing equivocators.

    The one Byzantine row: every equivocator re-tells each honest
    broadcast as two direct-send fan-outs (one story per half), so
    logical sends grow as n³ — 0.69 M at n=100, 43 M at n=400 — and the
    engine's cost is staging and delivering multicasts, not counting.
    Built from a :class:`~repro.scenario.RunSpec` and run by
    ``run_spec`` (no injected clock, so no per-phase split).
    """
    from repro.scenario import RunSpec, run_spec

    spec = RunSpec(
        protocol="consensus",
        n=n,
        f=(n - 1) // 3,
        adversary="equivocator",
        rushing=True,
        seed=seed,
    )
    row, result = _measure(
        lambda: run_spec(spec), trace=_trace_for(n, tracing)
    )
    assert result.agreed, "byz-consensus workload failed to agree"
    return {
        "n": n,
        "f": spec.f,
        "decision": result.distinct_outputs.pop(),
        **row,
    }


#: workload name -> (measure function, size cap).  The sampled variants
#: sit right after their full-broadcast baselines so the table reads as
#: paired rows.
WORKLOADS = {
    "all-broadcast": (measure_engine, ENGINE_MAX_N),
    "consensus": (measure_consensus, CONSENSUS_MAX_N),
    "sampled-consensus": (measure_sampled_consensus, CONSENSUS_MAX_N),
    "parallel-consensus": (measure_parallel, PARALLEL_MAX_N),
    "sampled-parallel-consensus": (measure_sampled_parallel, PARALLEL_MAX_N),
    "byz-consensus": (measure_byz_consensus, BYZ_MAX_N),
}
#: Workloads that do not run on ``DEFAULT_SIZES`` unless ``--sizes``
#: says so.
OWN_SIZES = {"byz-consensus": (100, 400)}


def build_results(
    sizes=None,
    tracing: bool = True,
    workloads: tuple[str, ...] = tuple(WORKLOADS),
) -> dict:
    """Run *workloads* at *sizes* (default: each workload's own list),
    skipping sizes above a workload's cap."""
    return {
        "workloads": [
            {
                "workload": name,
                "results": [
                    WORKLOADS[name][0](n, tracing=tracing)
                    for n in sizes or OWN_SIZES.get(name, DEFAULT_SIZES)
                    if n <= WORKLOADS[name][1]
                ],
            }
            for name in workloads
        ],
    }


#: Title line of ``results/BENCH_engine.md``.
TABLE_TITLE = (
    "Engine hot path: all-broadcast drain, full consensus "
    "runs, and their committee-sampled variants (staged/round stays "
    "at n; recipients of a round's broadcasts share one inbox "
    "index; rows are throughput-comparable only within one "
    "tracemalloc setting)"
)


def table_rows(payload: dict) -> list[dict]:
    """The ``BENCH_engine.md`` rows: a pure function of the JSON payload
    (``tests/test_bench_ledger.py`` keeps the two committed files in
    step with it)."""
    return [
        {
            "workload": entry["workload"],
            "n": row["n"],
            "rounds": row["rounds"],
            "rounds/s": row["rounds_per_sec"],
            # Logical deliveries (staged × recipients): the message-
            # complexity figure.  Work actually done on the columnar
            # path is the materialized column.
            "logical deliv/s": row["logical_deliveries_per_sec"],
            "materialized": row["materialized_messages"],
            "staged/round": row["staged_entries_per_round"],
            "alloc reduction": f"{row['alloc_reduction_vs_per_recipient']}x",
            "msgs/decision": row.get("messages_per_decision", "-"),
            "tracemalloc": "on" if row["tracemalloc"] else "off",
            "peak KiB": (
                "-"
                if row["peak_traced_kib"] is None
                else row["peak_traced_kib"]
            ),
        }
        for entry in payload["workloads"]
        for row in entry["results"]
    ]


def write_outputs(payload: dict, out: pathlib.Path) -> None:
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    from benchmarks._harness import emit_table

    emit_table("BENCH_engine", table_rows(payload), title=TABLE_TITLE)


def baseline_subset(payload: dict, n: int = 50) -> dict:
    """The CI-smoke baseline: the size-*n* row of every workload, plus
    the sampled-consensus economy anchor at ``ECONOMY_ANCHOR_N``.

    Writing the baseline from the same run (and machine) as the full
    results keeps the committed numbers mutually comparable.
    """

    def keep(workload: str, row: dict) -> bool:
        if row["n"] == n:
            return True
        return (
            workload == "sampled-consensus" and row["n"] == ECONOMY_ANCHOR_N
        )

    return {
        "workloads": [
            {
                "workload": entry["workload"],
                "results": [
                    r
                    for r in entry["results"]
                    if keep(entry["workload"], r)
                ],
            }
            for entry in payload["workloads"]
        ],
    }


def check_against_baseline(payload: dict, baseline_path: pathlib.Path) -> int:
    """Exit status 1 on a >``PERF_SMOKE_MAX_SLOWDOWN``x rounds/sec
    regression at any shared (workload, n) pair."""
    baseline = json.loads(baseline_path.read_text())
    base_by_key = {
        (entry["workload"], row["n"]): row
        for entry in baseline["workloads"]
        for row in entry["results"]
    }
    status = 0
    for entry in payload["workloads"]:
        for row in entry["results"]:
            base = base_by_key.get((entry["workload"], row["n"]))
            if base is None:
                continue
            ratio = base["rounds_per_sec"] / row["rounds_per_sec"]
            ok = ratio <= PERF_SMOKE_MAX_SLOWDOWN
            verdict = "ok" if ok else "REGRESSION"
            print(
                f"{entry['workload']} n={row['n']}: "
                f"{row['rounds_per_sec']} rounds/s vs baseline "
                f"{base['rounds_per_sec']} (x{ratio:.2f} slower) {verdict}"
            )
            if not ok:
                status = 1
    return status


def check_economy_against_baseline(
    payload: dict, baseline_path: pathlib.Path
) -> int:
    """Exit status 1 when a counted figure grew beyond
    ``ECONOMY_MAX_INCREASE``x the baseline's at any shared (workload, n)
    pair: ``messages_per_decision`` (the protocols' fan-out) or
    ``materialized_messages`` (Message objects the engine built — a
    regression back onto the object path shows here first).

    Unlike rounds/sec both are deterministic per (n, seed), so the
    check is meaningful even on noisy shared runners.
    """
    baseline = json.loads(baseline_path.read_text())
    base_by_key = {
        (entry["workload"], row["n"]): row
        for entry in baseline["workloads"]
        for row in entry["results"]
    }
    status = 0
    for entry in payload["workloads"]:
        for row in entry["results"]:
            base = base_by_key.get((entry["workload"], row["n"]))
            if base is None:
                continue
            for figure in ("messages_per_decision", "materialized_messages"):
                current = row.get(figure)
                committed = base.get(figure)
                if current is None or committed is None:
                    continue
                ok = current <= ECONOMY_MAX_INCREASE * committed
                verdict = "ok" if ok else "ECONOMY REGRESSION"
                print(
                    f"{entry['workload']} n={row['n']}: {figure} "
                    f"{current} vs baseline {committed} {verdict}"
                )
                if not ok:
                    status = 1
    return status


def run_agreement_sweep(seeds: int) -> dict:
    """The sampled-vs-oracle agreement check over *seeds* seeds.

    Delegates to :func:`repro.analysis.oracle.check_sampled_agreement`
    (the same helper the integration tests pin) at
    ``AGREEMENT_POPULATION`` nodes and returns its summary block for
    the results JSON.
    """
    from repro.analysis.oracle import check_sampled_agreement

    report = check_sampled_agreement(
        population=AGREEMENT_POPULATION, seeds=seeds
    )
    summary = report.summary()
    print(
        f"agreement sweep: sampled == oracle on "
        f"{summary['seeds_checked']} seeds at n={summary['population']}: "
        f"{'OK' if summary['all_agree'] else summary['disagreements']}"
    )
    return summary


def test_engine_hot_path(benchmark):
    payload = build_results(sizes=(50, 200))
    write_outputs(payload, RESULTS_DIR / "BENCH_engine.json")
    by_name = {
        entry["workload"]: entry["results"]
        for entry in payload["workloads"]
    }
    for row in by_name["all-broadcast"]:
        # Staging is O(sends): on the all-broadcast workload each round
        # stages exactly n entries, not n^2.
        assert row["staged_entries_per_round"] == row["n"]
        assert row["alloc_reduction_vs_per_recipient"] >= 3
    for row in by_name["consensus"]:
        # Every run must actually decide (inside the budget) and agree.
        assert row["rounds"] < CONSENSUS_ROUND_LIMIT
        assert row["decision"] in (0, 1)
    for row in by_name["parallel-consensus"]:
        # All-correct real-valued inputs: every instance must terminate
        # with an output, and every node with the same pair set.
        assert row["rounds"] < PARALLEL_ROUND_LIMIT
        assert row["decided_pairs"] == PARALLEL_INSTANCES
    full = {row["n"]: row for row in by_name["consensus"]}
    for row in by_name["sampled-consensus"]:
        assert row["rounds"] < CONSENSUS_ROUND_LIMIT
        assert row["decision"] in (0, 1)
        assert row["decisions"] == row["n"]
        # At n=200 the committee (128) is a strict subset, so the
        # sampled run must already be cheaper per decision.
        if row["committee"] < row["n"]:
            assert (
                row["messages_per_decision"]
                < full[row["n"]]["messages_per_decision"]
            )
    for row in by_name["sampled-parallel-consensus"]:
        assert row["rounds"] < PARALLEL_ROUND_LIMIT
        assert row["decided_pairs"] == PARALLEL_INSTANCES
        assert row["decisions"] == row["n"]
    for row in by_name["byz-consensus"]:
        # Agreement is asserted inside the measure function; here: the
        # equivocators' fan-outs are direct sends, staged per recipient.
        assert row["decision"] in (0, 1)
        assert row["staged_entries_per_round"] > row["n"] * row["f"]
    benchmark.pedantic(
        lambda: measure_engine(50, rounds=20), rounds=3, iterations=1
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="populations to run every selected workload at (default: "
        "%s; byz-consensus %s)"
        % (list(DEFAULT_SIZES), list(OWN_SIZES["byz-consensus"])),
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=RESULTS_DIR / "BENCH_engine.json",
    )
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        help="baseline JSON to compare rounds/sec against "
        "(fails on a >2x regression)",
    )
    parser.add_argument(
        "--baseline-out",
        type=pathlib.Path,
        default=None,
        help="also write this run's n=50 rows as a fresh CI-smoke "
        "baseline (keeps baseline and results from one machine/run)",
    )
    parser.add_argument(
        "--no-tracemalloc",
        action="store_true",
        help="disable tracemalloc for every row (peak_traced_kib is "
        "null); rows at n >= %d always run untraced" % (TRACEMALLOC_MAX_N + 1),
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=tuple(WORKLOADS),
        default=tuple(WORKLOADS),
        help="restrict to a subset of workloads (default: all)",
    )
    parser.add_argument(
        "--check-economy",
        type=pathlib.Path,
        default=None,
        help="baseline JSON to compare messages_per_decision and "
        "materialized_messages against (fails on a >%.1fx increase)"
        % ECONOMY_MAX_INCREASE,
    )
    parser.add_argument(
        "--agreement-seeds",
        type=int,
        default=0,
        help="also run the sampled-vs-oracle agreement check over this "
        "many seeds at n=%d and record it in the JSON (fails on any "
        "disagreement)" % AGREEMENT_POPULATION,
    )
    args = parser.parse_args(argv)
    payload = build_results(
        sizes=args.sizes,
        tracing=not args.no_tracemalloc,
        workloads=tuple(args.workloads),
    )
    status = 0
    if args.agreement_seeds:
        payload["agreement"] = run_agreement_sweep(args.agreement_seeds)
        if not payload["agreement"]["all_agree"]:
            status = 1
    write_outputs(payload, args.out)
    if args.baseline_out is not None:
        args.baseline_out.write_text(
            json.dumps(baseline_subset(payload), indent=2) + "\n"
        )
    if args.check is not None:
        status = check_against_baseline(payload, args.check) or status
    if args.check_economy is not None:
        status = (
            check_economy_against_baseline(payload, args.check_economy)
            or status
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
