"""``python -m benchmarks.e2e`` — run, trace and compare the benchmark.

* ``--workload NAME --seed N --seconds S --trace 0|1`` is the
  ``BENCHMARK.json`` contract: one workload, one pass, and one JSON
  object as the last line of standard output.
* without ``--workload`` it runs the whole suite (every workload, both
  passes), prints every metric by name with its unit, and writes
  ``results/<commit>-<seed>.json``.
* ``compare A.json B.json`` judges two result files against the bounds.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.e2e import ROOT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="time box of the measuring loop; it never runs fewer than the "
        "workload's minimum ops, so 0 (the default) is fixed work",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2 timed ops per workload at small n (self-check, not numbers)",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        help="override every spec's round budget (forces failing verdicts)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="suite mode: untraced runs per workload (compare uses their "
        "median and quartile spread)",
    )
    parser.add_argument("--out", help="suite mode: result file path")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"benchmarks.e2e: no program to measure at {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from benchmarks.e2e import driver

    if args.workload is None:
        return driver.run_suite(args)
    if args.workload not in driver.WORKLOADS:
        print(f"benchmarks.e2e: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    return driver.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
