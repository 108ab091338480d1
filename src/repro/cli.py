"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands:

* ``repro run <protocol>`` — one seeded run of any core protocol against
  a chosen adversary, with the outcome and metrics printed; accepts
  ``--scenario FILE`` to replay a serialized :class:`RunSpec` instead
  (e.g. a campaign violation artifact), and ``--events FILE`` to record
  the run's event stream (two runs of one spec write identical bytes);
* ``repro judge RUN.jsonl`` — judge such a stream on its own: the
  verdict lines and exit code ``run`` printed;
* ``repro sweep <protocol>`` — a resiliency sweep over ``f`` for a fixed
  population, one grid (:mod:`repro.analysis.grid`);
* ``repro matrix <protocol>`` — every registered adversary, one grid;
* ``repro campaign [protocol]`` — a Monte Carlo churn campaign: many
  seed-derived RunSpecs in a worker pool, per-monitor violation rates;
* ``repro demo impossibility`` — the §9 partition/embedding experiments;
* ``repro lint`` — the static model-invariant checker (``repro.lint``).

Every run is constructed through :mod:`repro.scenario` — the CLI never
assembles populations by hand (lint rule R502 enforces this), so
anything it runs can be serialized, shared, and replayed.  Every run is
judged by :func:`repro.analysis.campaign.judge`, so ``run``, ``sweep``,
``matrix`` and ``campaign`` give one spec one verdict.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace

from repro.adversary import STRATEGY_BUILDERS
from repro.analysis.campaign import judge
from repro.analysis.report import format_table
from repro.errors import EventStreamError, ReproError
from repro.obs.bus import EventBus
from repro.scenario import (
    CHURN_KINDS,
    ChurnSpec,
    PROTOCOLS,
    RunSpec,
    SAMPLED_PROTOCOLS,
    collector_paused,
    resolve,
)


def _parse_params(pairs) -> dict:
    """``key=value`` pairs -> dict, values parsed as JSON when possible."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"expected key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _spec_from_args(args, seed: int = 0) -> RunSpec:
    churn = None
    churn_kind = getattr(args, "churn", None)
    if churn_kind and churn_kind != "none":
        churn = ChurnSpec(
            churn_kind, _parse_params(getattr(args, "churn_param", None))
        )
    return RunSpec(
        protocol=args.protocol,
        n=args.n,
        f=args.f,
        variant=getattr(args, "variant", "full"),
        protocol_params=_parse_params(getattr(args, "protocol_param", None)),
        adversary=args.adversary,
        churn=churn,
        seed=seed,
        rushing=args.rushing,
        max_rounds=args.max_rounds,
        enforce_resiliency=not args.force,
    )


def _load_scenario(path: str) -> RunSpec | None:
    """The spec saved at *path*, or None once ``error: PATH: why`` is on
    stderr (the caller exits 2, apart from a violated verdict's 1)."""
    try:
        return RunSpec.load(path)
    except (ReproError, OSError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _runnable(spec: RunSpec, path: str | None) -> bool:
    """False once ``error: [PATH: ]why`` is on stderr for a spec that can
    never run (the caller exits 2; a later failure is a crash verdict)."""
    try:
        resolve(spec)
    except ReproError as exc:
        where = f"{path}: " if path else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return False
    return True


# Owns the run's lifetime: ``result`` is a local, so the run's graph is
# freed by reference counting before the collector resumes (DESIGN.md §4).
@collector_paused
def cmd_run(args) -> int:
    if args.scenario:
        spec = _load_scenario(args.scenario)
        if spec is None:
            return 2
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    elif args.protocol is None:
        raise SystemExit("run: need a protocol or --scenario FILE")
    else:
        spec = _spec_from_args(args, seed=args.seed or 0)
    if not _runnable(spec, args.scenario):
        return 2
    bus = EventBus()
    sink = bus.to_jsonl(args.events) if args.events else None
    try:
        result, verdicts = judge(spec, bus)
    finally:
        if sink is not None:
            sink.close()
    print(f"scenario : {spec.label()}")
    if result is not None:
        print(f"rounds   : {result.rounds}")
        print(f"messages : {result.metrics.sends_total}")
        if result.metrics.decisions:
            print(
                "economy  : "
                f"{result.metrics.messages_per_decision:.2f} msgs/decision "
                f"over {result.metrics.decisions} decisions"
            )
        print(f"outputs  : {result.outputs}")
    code = _print_verdicts(verdicts)
    if sink is not None:
        print(f"events   : {sink.count} -> {args.events}")
    if args.timeline and result is not None:
        from repro.analysis.timeline import render_timeline

        print()
        print(render_timeline(result.trace, result.correct_ids))
    return code


def _print_verdicts(verdicts: dict) -> int:
    """One ``name: OK|message`` line per verdict; exit 1 if any broke."""
    for name, violation in verdicts.items():
        print(f"{name}: {'OK' if violation is None else violation}")
    return 0 if all(v is None for v in verdicts.values()) else 1


def cmd_judge(args) -> int:
    """Judge a recorded ``run --events`` stream, as ``run`` judged it."""
    from repro.analysis.verdicts import judge_stream

    try:
        verdicts = judge_stream(args.stream)
    except EventStreamError as exc:
        problem = f"line {exc.line}: {exc.problem}"
    except OSError as exc:
        problem = str(exc)
    else:
        return _print_verdicts(verdicts)
    print(f"error: {args.stream}: {problem}", file=sys.stderr)
    return 2


def _print_grid(name: str, title: str, key: str, specs, seeds: int) -> int:
    """Print the grid of *specs* (keyed by field *key*): exit 1 when a
    claim breaks, 2 when the grid cannot run."""
    from repro.analysis.grid import Grid, measure

    try:
        grid = Grid(name, title, (key,), tuple(specs), seeds)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, columns, broken = measure(grid)
    print(format_table(rows, columns=columns, title=title))
    for claim in broken:
        print(f"claim broken: {claim}", file=sys.stderr)
    return 1 if broken else 0


def cmd_sweep(args) -> int:
    """Every f from 0 to ``--max-f``, one grid point each."""
    base = _spec_from_args(args)
    return _print_grid(
        "sweep",
        f"{args.protocol}, n={args.n}, adversary={args.adversary}",
        "f",
        (replace(base, f=f) for f in range(args.max_f + 1)),
        args.seeds,
    )


def cmd_matrix(args) -> int:
    """Every registered adversary against one protocol, rushing."""
    base = _spec_from_args(args)
    return _print_grid(
        "matrix",
        f"{args.protocol}: adversary matrix, n={args.n} f={args.f}, rushing",
        "adversary",
        (replace(base, adversary=name) for name in STRATEGY_BUILDERS),
        args.seeds,
    )


def cmd_campaign(args) -> int:
    from repro.analysis.campaign import (
        CampaignTiming,
        format_campaign_report,
        run_campaign,
    )

    if args.scenario:
        base = _load_scenario(args.scenario)
        if base is None:
            return 2
    else:
        base = _spec_from_args(args)
    if not _runnable(base, args.scenario):
        return 2
    # Timings ride beside a saved report, in their own file: the report
    # stays byte-identical across machines and worker counts.
    timing = CampaignTiming(clock=time.perf_counter) if args.out else None
    try:
        report = run_campaign(
            base,
            runs=args.runs,
            campaign_seed=args.campaign_seed,
            workers=args.workers,
            artifacts_dir=args.artifacts,
            timing=timing,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_campaign_report(report))
    if args.out:
        report.save(args.out)
        print(f"report   : {args.out}")
        sidecar = timing.save(
            pathlib.Path(args.out).with_suffix(".timing.json")
        )
        print(f"timing   : {sidecar} ({timing.specs_per_s:.1f} specs/s)")
    if report.violations:
        print(f"VIOLATIONS: {len(report.violations)}")
        for record in report.violations[:10]:
            print(
                f"  run {record['index']} seed {record['seed']} "
                f"[{record['monitor']}] {record['message']}"
            )
            if "artifact" in record:
                print(f"    replay: repro run --scenario {record['artifact']}")
    return 0 if report.ok else 1


def cmd_demo(args) -> int:
    from repro.asyncsim import run_async_partition, run_semisync_embedding

    if args.what == "impossibility":
        r = run_async_partition()
        print("Lemma 9.1 (asynchronous partition):")
        print(f"  decisions        : {r.decisions}")
        print(f"  disagreement     : {r.disagreement}")
        print(f"  indistinguishable: {r.indistinguishable}")
        s = run_semisync_embedding()
        print("Lemma 9.2 (semi-synchronous embedding):")
        print(f"  delta_a={s.delta_a} delta_b={s.delta_b} delta_s={s.delta_s}")
        print(f"  decisions        : {s.decisions}")
        print(f"  disagreement     : {s.disagreement}")
        print(f"  indistinguishable: {s.indistinguishable}")
        return 0
    raise SystemExit(f"unknown demo {args.what!r}")


def cmd_lint(args) -> int:
    """Delegate to :mod:`repro.lint` (``repro lint [lint options]``)."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.rest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Byzantine agreement with unknown participants and failures "
            "(PODC 2020) — simulation toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, protocol_optional: bool = False, fixed=()):
        """The spec flags, less the *fixed* ones the command sets."""
        if protocol_optional:
            p.add_argument("protocol", nargs="?", choices=PROTOCOLS)
        else:
            p.add_argument("protocol", choices=PROTOCOLS)
        p.add_argument("--n", type=int, default=10, help="total nodes")
        if "f" not in fixed:
            p.add_argument("--f", type=int, default=3, help="Byzantine nodes")
        if "adversary" not in fixed:
            p.add_argument(
                "--adversary", default="silent", choices=STRATEGY_BUILDERS
            )
        if "rushing" not in fixed:
            p.add_argument("--rushing", action="store_true")
        p.add_argument("--max-rounds", type=int, default=500)
        p.add_argument(
            "--variant",
            choices=("full", "sampled", "classic"),
            default="full",
            help="'sampled' runs the committee-sampled variant "
            f"({'/'.join(SAMPLED_PROTOCOLS)} only): a polylog committee "
            "decides, everyone else adopts via implicit agreement; "
            "'classic' the known-n,f algorithm the protocol generalizes",
        )
        p.add_argument(
            "--protocol-param",
            action="append",
            metavar="KEY=VALUE",
            help="protocol-specific knob (JSON value), repeatable",
        )
        if "force" not in fixed:
            p.add_argument(
                "--force",
                action="store_true",
                help="allow configurations violating n > 3f",
            )

    run_p = sub.add_parser("run", help="one seeded run")
    common(run_p, protocol_optional=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="load the RunSpec from a JSON file (e.g. a campaign "
        "violation artifact) instead of building it from flags",
    )
    run_p.add_argument(
        "--timeline",
        action="store_true",
        help="print the round-by-round event timeline",
    )
    run_p.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="stream the run's full event plane to FILE as "
        "schema-versioned JSONL (see docs/observability.md)",
    )
    run_p.set_defaults(func=cmd_run)

    judge_p = sub.add_parser(
        "judge",
        help="judge a recorded run --events stream: the verdict lines "
        "and exit code run printed",
    )
    judge_p.add_argument("stream", metavar="RUN.jsonl")
    judge_p.set_defaults(func=cmd_judge)

    sweep_p = sub.add_parser("sweep", help="resiliency sweep over f")
    common(sweep_p, fixed=("f", "force"))
    sweep_p.add_argument("--max-f", type=int, default=4)
    sweep_p.add_argument("--seeds", type=int, default=10)
    sweep_p.set_defaults(func=cmd_sweep, f=0, force=True)

    matrix_p = sub.add_parser(
        "matrix", help="every adversary against one protocol"
    )
    common(matrix_p, fixed=("adversary", "rushing"))
    matrix_p.add_argument("--seeds", type=int, default=3)
    matrix_p.set_defaults(func=cmd_matrix, adversary="silent", rushing=True)

    campaign_p = sub.add_parser(
        "campaign",
        help="Monte Carlo churn campaign: many seeded runs, one "
        "violation-rate report (see docs/scenarios.md)",
    )
    campaign_p.add_argument(
        "protocol", nargs="?", default="total-order", choices=PROTOCOLS
    )
    campaign_p.add_argument("--n", type=int, default=9, help="total nodes")
    campaign_p.add_argument("--f", type=int, default=2)
    campaign_p.add_argument(
        "--adversary", default="silent", choices=STRATEGY_BUILDERS
    )
    campaign_p.add_argument("--rushing", action="store_true")
    campaign_p.add_argument("--max-rounds", type=int, default=48)
    campaign_p.add_argument(
        "--churn",
        default="rate",
        choices=(*CHURN_KINDS, "none"),
        help="churn generator for every run (default: rate)",
    )
    campaign_p.add_argument(
        "--churn-param",
        action="append",
        metavar="KEY=VALUE",
        help="churn generator parameter (JSON value), repeatable",
    )
    campaign_p.add_argument(
        "--protocol-param",
        action="append",
        metavar="KEY=VALUE",
        help="protocol-specific knob (JSON value), repeatable",
    )
    campaign_p.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="load the base RunSpec from a JSON file instead of flags",
    )
    campaign_p.add_argument("--runs", type=int, default=1000)
    campaign_p.add_argument(
        "--campaign-seed",
        type=int,
        default=0,
        help="master seed; per-run seeds derive from (it, run index)",
    )
    campaign_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (report bytes are worker-count-invariant)",
    )
    campaign_p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="save the JSON report, and the run's wall-clock beside it "
        "as FILE's .timing.json sibling",
    )
    campaign_p.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="save each violating RunSpec as a replayable JSON artifact",
    )
    campaign_p.set_defaults(
        func=cmd_campaign, variant="full", force=False
    )

    demo_p = sub.add_parser("demo", help="canned demonstrations")
    demo_p.add_argument("what", choices=["impossibility"])
    demo_p.set_defaults(func=cmd_demo)

    lint_p = sub.add_parser(
        "lint",
        help="statically check the model invariants (see repro.lint)",
        add_help=False,
    )
    lint_p.add_argument("rest", nargs=argparse.REMAINDER)
    lint_p.set_defaults(func=cmd_lint)  # main() intercepts before argparse
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # Hand the whole tail to the lint CLI: argparse.REMAINDER cannot
        # forward leading options like --list-rules.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
