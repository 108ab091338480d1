"""One workload's closed loop, in its own process.

Every child prints ``READY`` once set up, then one JSON document.
``python -m benchmarks.e2e.child loop ...`` runs the warm-up op, prints
``READY`` (the driver stamps set-up time on that line), runs the timed
ops one after another — one client, closed loop.  The loop runs at least ``--min-ops`` ops and at least
``--seconds``; past that it keeps going, until ``--max-seconds``, while
fewer than ``--min-ops`` ops were taken at full machine speed
(:mod:`benchmarks.e2e.probe`).  ``... pool ...`` measures the campaign
pool instead.  A fresh process per loop makes ``ru_maxrss`` a
per-workload figure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
from typing import Any

from benchmarks.e2e.clock import now
from benchmarks.e2e.probe import Gate
from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import WORKLOADS, spec_doc
from repro.analysis.campaign import evaluate_spec, run_campaign
from repro.scenario import RunSpec


def peak_rss_mib() -> float:
    """This process's high-water RSS (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(doc: dict[str, Any]) -> dict[str, Any]:
    """Spec document -> verdict row, timed; never raises.

    An op fails on any violated monitor or any exception; the loop
    keeps going either way so one bad seed cannot abort a run.
    """
    gc.collect()
    t0 = now()
    t1 = t0
    try:
        spec = RunSpec.from_json_dict(doc)
        t1 = now()
        row = evaluate_spec(spec)
        violations = {
            name: message
            for name, message in row["verdicts"].items()
            if message is not None
        }
        outcome = {"rounds": row["rounds"], "sends": row["sends"]}
    except Exception as exc:  # the loop is the boundary that keeps running
        violations = {"exception": repr(exc)}
        outcome = {"rounds": None, "sends": None}
    t2 = now()
    return {
        "seed": doc["seed"],
        **outcome,
        "violations": violations,
        "parse_s": t1 - t0,
        "verdict_s": t2 - t0,
    }


def run_loop(args) -> dict[str, Any]:
    workload = WORKLOADS[args.workload]

    def doc(index: int) -> dict[str, Any]:
        return spec_doc(
            workload,
            args.seed,
            index,
            quick=args.quick,
            max_rounds=args.max_rounds,
        )

    if args.spec_out:
        RunSpec.from_json_dict(doc(0)).save(args.spec_out)
    tracer = Tracer() if args.trace else None
    with (
        tracer.installed(doc(0)) if tracer else contextlib.nullcontext()
    ):
        warmup = run_op(doc(0))
        if tracer:
            tracer.reset()
        rss_warm = peak_rss_mib()
        print("READY", flush=True)
        gate = Gate()
        ops = gate.samples
        peak = None
        loop_start = now()
        while True:
            if peak is None and len(ops) >= args.min_ops:
                # Fixed work, so the figure does not grow with however
                # many extra ops the time box allowed.
                peak = peak_rss_mib()
            elapsed = now() - loop_start
            if len(ops) >= args.min_ops and elapsed >= args.seconds and (
                elapsed >= args.max_seconds
                or gate.clean_count() >= args.min_ops
            ):
                break
            gate.add(run_op(doc(len(ops) + 1)))
    for op, clean, scale in zip(ops, gate.flags(), gate.scales()):
        op["clean"] = clean
        op["scale"] = scale
    result = {
        "warmup": warmup,
        "ops": ops,
        "peak_rss_mib": peak,
        "rss_growth_mib": peak - rss_warm,
    }
    if tracer:
        result["layers"] = tracer.totals()
    if args.repeat_seed:
        # Last, because it leaves the same-seed artefact behind in this
        # process: one fresh spec run twice (README, "same-seed note").
        repeat = doc(len(ops) + 1)
        result["repeat_seed_s"] = [
            run_op(repeat)["verdict_s"] for _ in range(2)
        ]
    return result


def run_pool(args) -> dict[str, Any]:
    """One campaign at 1 worker and at ``--workers``: speed and bytes."""
    workload = WORKLOADS[args.workload]
    base = RunSpec.from_json_dict(
        spec_doc(workload, args.seed, 0, quick=args.quick)
    )
    print("READY", flush=True)

    def campaign(workers: int) -> tuple[float, str]:
        t0 = now()
        report = run_campaign(
            base, runs=args.runs, campaign_seed=args.seed, workers=workers
        )
        elapsed = now() - t0
        return elapsed, json.dumps(report.to_json_dict())

    serial_s, serial_report = campaign(1)
    pooled_s, pooled_report = campaign(args.workers)
    return {
        "runs": args.runs,
        "workers": args.workers,
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "report_identical": serial_report == pooled_report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    modes = parser.add_subparsers(dest="mode", required=True)
    for name in ("loop", "pool"):
        mode = modes.add_parser(name)
        mode.add_argument("--workload", required=True, choices=WORKLOADS)
        mode.add_argument("--seed", type=int, required=True)
        mode.add_argument("--quick", action="store_true")
    loop = modes.choices["loop"]
    loop.add_argument("--min-ops", type=int, required=True)
    loop.add_argument("--seconds", type=float, default=0.0)
    loop.add_argument("--max-seconds", type=float, default=0.0)
    loop.add_argument("--trace", action="store_true")
    loop.add_argument("--repeat-seed", action="store_true")
    loop.add_argument("--max-rounds", type=int)
    loop.add_argument("--spec-out")
    pool = modes.choices["pool"]
    pool.add_argument("--runs", type=int, required=True)
    pool.add_argument("--workers", type=int, required=True)
    args = parser.parse_args(argv)
    result = run_loop(args) if args.mode == "loop" else run_pool(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
