"""The single driver process: spawns one workload child at a time.

Two passes per workload, never mixed:

* :func:`measure` — tracing off; the end-to-end metrics.
* :func:`measure_layers` — a traced child, an untraced child over the
  same ops (the tracing-overhead reference and the per-op cross-check),
  a campaign-pool child and cold CLI/import runs; the per-layer metrics.

Metric names, units and bounds live in ``BENCHMARK.json`` only; this
module computes values and refuses to report a set that differs from
the declared one.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from typing import Any, Iterator

from benchmarks.e2e import ROOT, load_contract
from benchmarks.e2e.clock import now
from benchmarks.e2e.probe import Gate
from benchmarks.e2e.workloads import WORKLOADS, spec_doc

E2E_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = E2E_DIR / "results"

#: Full-speed set-up-only children per untraced run; ``setup_s`` is
#: their median.
SETUP_RUNS = 5
#: Full-speed cold ``python -m repro run --scenario`` subprocesses per
#: untraced run.
CLI_RUNS = 7
#: The measuring loop stops waiting for full-speed ops after this long.
LOOP_DEADLINE_S = 15.0
#: Percentiles over fewer samples than this are not worth gating for.
MIN_CLEAN = 10
#: Cold CLI and cold ``import repro.cli`` subprocesses per traced run.
CLI_TRACE_RUNS = 3
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Closure tolerances (see README, "attribution closure").
PHASE_TOLERANCE = 0.02
COVERAGE_FLOOR = 0.95


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + inherited if inherited else ""
    )
    return env


def host_info() -> dict[str, Any]:
    """Where and when-ish a row was measured (no wall-clock date: rows
    of one commit and seed should differ only in what was measured)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "load_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def watched(proc: subprocess.Popen) -> Iterator[None]:
    """Kill *proc* if it outlives CHILD_TIMEOUT_S, and never leave it
    running.  (Not ``wait(timeout=...)``: that polls, in steps of up to
    50 ms, which would quantize every cold-run time.)"""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def spawn_child(arguments: list[str]) -> tuple[float, dict[str, Any]]:
    """Run one child; returns (spawn -> READY seconds, its JSON result)."""
    command = [sys.executable, "-m", "benchmarks.e2e.child", *arguments]
    t0 = now()
    with subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    ) as proc, watched(proc):
        ready = proc.stdout.readline()
        ready_s = now() - t0
        result = proc.stdout.read()
        code = proc.wait()
    if code != 0 or ready.strip() != "READY":
        raise RuntimeError(f"child {arguments} failed (exit {code})")
    return ready_s, json.loads(result)


def spawn_loop(
    workload: str,
    seed: int,
    *,
    min_ops: int,
    seconds: float = 0.0,
    max_seconds: float = 0.0,
    quick: bool = False,
    trace: bool = False,
    repeat_seed: bool = False,
    max_rounds: int | None = None,
    spec_out: pathlib.Path | None = None,
) -> tuple[float, dict[str, Any]]:
    arguments = [
        "loop",
        "--workload", workload,
        "--seed", str(seed),
        "--min-ops", str(min_ops),
        "--seconds", repr(seconds),
        "--max-seconds", repr(max_seconds),
    ]
    for flag, on in (
        ("--quick", quick),
        ("--trace", trace),
        ("--repeat-seed", repeat_seed),
    ):
        if on:
            arguments.append(flag)
    if max_rounds is not None:
        arguments += ["--max-rounds", str(max_rounds)]
    if spec_out is not None:
        arguments += ["--spec-out", str(spec_out)]
    return spawn_child(arguments)


def gated(sample, want: int) -> list[float]:
    """*want* full-speed values of ``sample()`` in reference-speed
    seconds, trying half as many again; with too few clean ones, every
    value taken."""
    gate = Gate()
    for _ in range(want + want // 2):
        gate.add(sample())
        if gate.clean_count() >= want:
            break
    scaled = [t * scale for t, scale in zip(gate.samples, gate.scales())]
    clean = [t for t, ok in zip(scaled, gate.flags()) if ok]
    return clean if 2 * len(clean) >= want else scaled


def cold_runs(command: list[str], want: int) -> tuple[list[float], int, int]:
    """Full-speed wall times of fresh subprocesses running *command*;
    also how many were run and how many of those failed."""
    codes = []

    def sample() -> float:
        t0 = now()
        with subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ) as proc, watched(proc):
            codes.append(proc.wait())
        return now() - t0

    times = gated(sample, want)
    return times, len(codes), sum(code != 0 for code in codes)


def cli_command(spec_path: pathlib.Path) -> list[str]:
    return [
        sys.executable, "-m", "repro", "run", "--scenario", str(spec_path)
    ]


def op_failed(op: dict[str, Any]) -> bool:
    return bool(op["violations"])


def full_speed(ops: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The ops timed while the machine ran at full speed (probe.py);
    every op when too few were for a percentile to mean anything."""
    clean = [op for op in ops if op["clean"]]
    return clean if len(clean) >= MIN_CLEAN else ops


def scaled_s(op: dict[str, Any]) -> float:
    """An op's wall time in reference-speed seconds (probe.py)."""
    return op["verdict_s"] * op["scale"]


# ---------------------------------------------------------------------------
# Untraced pass: end-to-end metrics
# ---------------------------------------------------------------------------
def measure(
    name: str,
    seed: int,
    seconds: float,
    *,
    quick: bool = False,
    max_rounds: int | None = None,
) -> dict[str, Any]:
    workload = WORKLOADS[name]
    min_ops = 2 if quick else workload.min_ops
    setup_runs, cli_runs = (1, 1) if quick else (SETUP_RUNS, CLI_RUNS)
    with tempfile.TemporaryDirectory(dir=E2E_DIR, prefix=".work-") as work:
        spec_path = pathlib.Path(work) / "op0.json"
        _, loop = spawn_loop(
            name,
            seed,
            min_ops=min_ops,
            seconds=seconds,
            max_seconds=0.0 if quick else max(seconds, LOOP_DEADLINE_S),
            quick=quick,
            max_rounds=max_rounds,
            spec_out=spec_path,
        )
        setups = gated(
            lambda: spawn_loop(
                name, seed, min_ops=0, quick=quick, max_rounds=max_rounds
            )[0],
            setup_runs,
        )
        cli_times, cli_attempted, cli_failed = cold_runs(
            cli_command(spec_path), cli_runs
        )

    ops = loop["ops"]
    timed = full_speed(ops)
    times = [scaled_s(op) for op in timed]
    counted = ops[:min_ops]
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p75": statistics.quantiles(times, n=4)[2],
        "specs_per_s": len(times) / sum(times),
        "rounds_per_s": statistics.median(
            (op["rounds"] or 0) / scaled_s(op) for op in timed
        ),
        "cli_run_s": statistics.median(cli_times),
        "peak_rss_mib": loop["peak_rss_mib"],
        "sends_total": sum(op["sends"] or 0 for op in counted),
    }
    return {
        "values": values,
        "attempted": len(ops) + cli_attempted,
        "failed": sum(map(op_failed, ops)) + cli_failed,
        "samples": len(timed),
        "counts": {
            "ops_counted": len(counted),
            "rounds": sum(op["rounds"] or 0 for op in counted),
            "sends": values["sends_total"],
        },
        "ops": [
            {
                key: op[key]
                for key in (
                    "seed", "rounds", "sends", "verdict_s", "clean", "scale"
                )
            }
            for op in ops
        ],
    }


# ---------------------------------------------------------------------------
# Traced pass: per-layer metrics
# ---------------------------------------------------------------------------
def measure_layers(
    name: str,
    seed: int,
    seconds: float,
    *,
    quick: bool = False,
    max_rounds: int | None = None,
) -> dict[str, Any]:
    workload = WORKLOADS[name]
    min_ops = 2 if quick else max(2, workload.min_ops // 4)
    cli_runs = 1 if quick else CLI_TRACE_RUNS
    workers = min(2, os.cpu_count() or 1)
    with tempfile.TemporaryDirectory(dir=E2E_DIR, prefix=".work-") as work:
        spec_path = pathlib.Path(work) / "op0.json"
        _, traced = spawn_loop(
            name,
            seed,
            min_ops=min_ops,
            seconds=seconds / 2,
            quick=quick,
            trace=True,
            max_rounds=max_rounds,
            spec_out=spec_path,
        )
        _, plain = spawn_loop(
            name,
            seed,
            min_ops=len(traced["ops"]),
            quick=quick,
            repeat_seed=True,
            max_rounds=max_rounds,
        )
        _, pool = spawn_child(
            [
                "pool",
                "--workload", name,
                "--seed", str(seed),
                "--runs", str(4 if quick else workload.pool_runs),
                "--workers", str(workers),
                *(["--quick"] if quick else []),
            ]
        )
        cli_times, cli_attempted, cli_failed = cold_runs(
            cli_command(spec_path), cli_runs
        )
        import_times, _, _ = cold_runs(
            [sys.executable, "-c", "import repro.cli"], cli_runs
        )

    ops = traced["ops"]
    k = len(ops)
    layer = traced["layers"]
    parse_s = sum(op["parse_s"] for op in ops)
    traced_s = sum(op["verdict_s"] for op in ops)
    posthoc_s = traced_s - parse_s - layer["run_spec_s"]
    interned = layer["intern_hits"] + layer["unique_payloads"]
    first_s, second_s = plain["repeat_seed_s"]
    import_s = statistics.median(import_times)
    serial_rate = pool["runs"] / pool["serial_s"]
    pooled_rate = pool["runs"] / pool["pooled_s"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values = {
        "scenario.parse_s": parse_s / k,
        "scenario.materialize_s": layer["materialize_s"] / k,
        "scenario.churn_s": layer["churn_s"] / k,
        "scenario.churn_events": layer["churn_events"] / k,
        "sim.populate_s": layer["populate_s"] / k,
        "sim.rounds": layer["rounds"] / k,
        "sim.round_s": layer["round_s"] / k,
        "sim.deliver_s": layer["deliver_s"] / k,
        "sim.correct_s": layer["correct_s"] / k,
        "sim.dispatch_s": (layer["correct_s"] - layer["core_on_round_s"]) / k,
        "sim.adversary_s": layer["adversary_s"] / k,
        "sim.stage_s": layer["stage_s"] / k,
        "sim.inbox_query_s": layer["query_s"] / k,
        "sim.inbox_queries": layer["queries"] / k,
        "sim.sends": layer["sends"] / k,
        "sim.staged": layer["staged"] / k,
        "sim.deliveries_logical": layer["deliveries"] / k,
        "sim.materialized_messages": layer["materialized_messages"] / k,
        "sim.intern_hit_ratio": share(layer["intern_hits"], interned),
        "sim.fallback_runs": layer["fallback_runs"],
        "sim.repeat_seed_ratio": second_s / first_s,
        "core.on_round_s": layer["core_on_round_s"] / k,
        "core.on_round_calls": layer["core_on_round_calls"] / k,
        "core.logic_s": (
            layer["core_on_round_s"] - layer["core_query_s"]
        ) / k,
        "core.decisions": layer["decisions"] / k,
        "core.msgs_per_decision": share(layer["sends"], layer["decisions"]),
        "core.protocol_events": layer["protocol_events"] / k,
        "adversary.on_round_s": layer["adversary_on_round_s"] / k,
        "adversary.on_round_calls": layer["adversary_on_round_calls"] / k,
        "adversary.sends": layer["adversary_sends"] / k,
        "adversary.direct_share": share(
            layer["adversary_direct"], layer["adversary_sends"]
        ),
        "obs.subscriber_s": layer["subscriber_s"] / k,
        "obs.metrics_s": layer["metrics_s"] / k,
        "obs.trace_s": layer["trace_s"] / k,
        "obs.events": layer["subscriber_calls"] / k,
        "analysis.monitor_s": layer["monitor_s"] / k,
        "analysis.posthoc_s": posthoc_s / k,
        "analysis.violations": sum(len(op["violations"]) for op in ops),
        "analysis.pool.specs_per_s": pooled_rate,
        "analysis.pool.efficiency": pooled_rate / serial_rate / workers,
        "analysis.pool.report_identical": int(pool["report_identical"]),
        "cli.import_s": import_s,
        "cli.overhead_s": (
            statistics.median(cli_times)
            - import_s
            - plain["warmup"]["verdict_s"]
        ),
        "trace.overhead_ratio": (
            statistics.median(map(scaled_s, full_speed(ops)))
            / statistics.median(map(scaled_s, full_speed(plain["ops"])))
        ),
        "proc.rss_growth_mib": plain["rss_growth_mib"],
    }

    def outcome(op: dict[str, Any]) -> tuple:
        return op["rounds"], op["sends"], op["violations"]

    phases = (
        layer["deliver_s"]
        + layer["correct_s"]
        + layer["adversary_s"]
        + layer["stage_s"]
    )
    covered = (
        parse_s
        + layer["materialize_s"]
        + layer["populate_s"]
        + layer["round_s"]
        + posthoc_s
    )
    closure = {
        "phase_sum_over_round_s": share(phases, layer["round_s"]),
        "covered_share_of_op_s": share(covered, traced_s),
        "report_identical": pool["report_identical"],
    }
    closure["ok"] = (
        abs(closure["phase_sum_over_round_s"] - 1) <= PHASE_TOLERANCE
        and closure["covered_share_of_op_s"] >= COVERAGE_FLOOR
        and pool["report_identical"]
    )
    return {
        "values": values,
        "attempted": k + cli_attempted,
        # A traced op also fails when the untraced run of the same spec
        # disagrees with it: the wrappers must not change behaviour.
        "failed": sum(
            op_failed(a) or outcome(a) != outcome(b)
            for a, b in zip(ops, plain["ops"])
        )
        + cli_failed,
        "samples": k,
        "closure": closure,
        "counts": {
            "traced.ops": k,
            **{
                f"traced.{name}": value
                for name, value in layer.items()
                if not name.endswith("_s")
            },
        },
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def declared(contract: dict[str, Any], section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in contract[section]}


def with_units(
    values: dict[str, float], units: dict[str, str]
) -> dict[str, dict[str, Any]]:
    """Attach the declared unit to each value; the sets must match."""
    if set(values) != set(units):
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {
        name: {"value": values[name], "unit": units[name]} for name in units
    }


def print_metrics(workload: str, metrics: dict[str, dict[str, Any]]) -> None:
    for name, metric in metrics.items():
        print(f"{workload:16} {name:32} {metric['value']:<14.6g} "
              f"{metric['unit']}")


def warn_closure(workload: str, closure: dict[str, Any]) -> None:
    print(
        f"{workload:16} closure: phases/round_s="
        f"{closure['phase_sum_over_round_s']:.4f} covered="
        f"{closure['covered_share_of_op_s']:.4f} pool report identical="
        f"{closure['report_identical']} -> "
        f"{'ok' if closure['ok'] else 'WARNING: attribution does not close'}"
    )


def run_one(args) -> int:
    """The BENCHMARK.json contract: one workload, one pass, one JSON line."""
    contract = load_contract()
    options = {"quick": args.quick, "max_rounds": args.max_rounds}
    if args.trace:
        outcome = measure_layers(
            args.workload, args.seed, args.seconds, **options
        )
        units = declared(contract, "per_layer")
        warn_closure(args.workload, outcome["closure"])
    else:
        outcome = measure(args.workload, args.seed, args.seconds, **options)
        units = declared(contract, "end_to_end")
    metrics = with_units(outcome["values"], units)
    print_metrics(args.workload, metrics)
    print(f"{args.workload:16} timed ops (samples): {outcome['samples']}")
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_suite(args) -> int:
    """Every workload, both passes; prints every metric, writes results."""
    contract = load_contract()
    e2e_units = declared(contract, "end_to_end")
    layer_units = declared(contract, "per_layer")
    options = {"quick": args.quick, "max_rounds": args.max_rounds}
    rows: dict[str, Any] = {}
    for name in [w["name"] for w in contract["workloads"]]:
        host = host_info()
        runs = [
            measure(name, args.seed, args.seconds, **options)
            for _ in range(args.repeat)
        ]
        layers = measure_layers(name, args.seed, args.seconds, **options)
        last = runs[-1]
        attempted = sum(run["attempted"] for run in [*runs, layers])
        failed = sum(run["failed"] for run in [*runs, layers])
        print_metrics(name, with_units(last["values"], e2e_units))
        print(f"{name:16} {'failed_share':32} "
              f"{failed / attempted:<14.6g} ratio")
        print(f"{name:16} timed ops (samples): {last['samples']}")
        print_metrics(name, with_units(layers["values"], layer_units))
        warn_closure(name, layers["closure"])
        rows[name] = {
            "host": host,
            "spec": spec_doc(WORKLOADS[name], args.seed, 0, quick=args.quick),
            "samples": last["samples"],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {
                metric: {
                    "unit": unit,
                    "values": [run["values"][metric] for run in runs],
                }
                for metric, unit in e2e_units.items()
            },
            "per_layer": with_units(layers["values"], layer_units),
            "counts": {**last["counts"], **layers["counts"]},
            "closure": layers["closure"],
            "ops": last["ops"],
        }
    out = pathlib.Path(
        args.out
        or RESULTS_DIR / f"{host['commit']}-{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "claim": None,
        "workloads": rows,
    }
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"results: {out}")
    return 0
