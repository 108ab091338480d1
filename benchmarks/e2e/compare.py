"""``python -m benchmarks.e2e compare A.json B.json``.

One row per (workload, end-to-end metric): both medians, the bound from
``BENCHMARK.json``, and a verdict —

* ``worse`` / ``better``: B's median is beyond the bound in that
  direction;
* ``same``: within the bound;
* ``unresolved``: a side's run-to-run spread (quartile distance over
  median, needs ``--repeat`` >= 2) is wider than the bound, unless
  every B run beats every A run.

Exits 1 on any ``worse``, any rise in ``failed_share``, or — when both
files ran the same seed and sizes — any exact count that differs.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any

from benchmarks.e2e import load_contract

def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def judge(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[str, float]:
    """(verdict, share by which B's median is worse than A's)."""
    sign = 1 if better == "lower" else -1
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = sign * (median_b - median_a) / median_a if median_a else 0.0
    if max(spread(a), spread(b)) > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return ("better" if all_better else "unresolved"), worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def failed_share(row: dict[str, Any]) -> float:
    return row["failed"] / row["attempted"]


def compare(
    doc_a: dict[str, Any], doc_b: dict[str, Any], contract: dict[str, Any]
) -> int:
    # Exact counts repeat only for fixed work: same seed, same sizes,
    # and no time box deciding how many ops ran.
    comparable = (
        doc_a["seed"] == doc_b["seed"]
        and doc_a["quick"] == doc_b["quick"]
        and doc_a["seconds"] == doc_b["seconds"] == 0
    )
    bad = 0
    print(f"{'workload':16} {'metric':16} {'A':>12} {'B':>12} "
          f"{'bound':>6}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        row_a = doc_a["workloads"][workload]
        row_b = doc_b["workloads"][workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = row_a["end_to_end"][name]["values"]
            b = row_b["end_to_end"][name]["values"]
            verdict, worsening = judge(
                a, b, metric["better"], metric["bound"]
            )
            bad += verdict == "worse"
            print(
                f"{workload:16} {name:16} {statistics.median(a):12.6g} "
                f"{statistics.median(b):12.6g} {metric['bound']:6.2f}  "
                f"{verdict} ({worsening:+.1%})"
            )
        share_a, share_b = failed_share(row_a), failed_share(row_b)
        verdict = (
            "worse" if share_b > share_a
            else "better" if share_b < share_a
            else "same"
        )
        bad += verdict == "worse"
        print(f"{workload:16} {'failed_share':16} {share_a:12.6g} "
              f"{share_b:12.6g} {0:6.2f}  {verdict}")
        if comparable:
            differing = sorted(
                key
                for key in row_a["counts"].keys() | row_b["counts"].keys()
                if row_a["counts"].get(key) != row_b["counts"].get(key)
            )
            if differing:
                bad += 1
                print(f"{workload:16} count mismatch: {', '.join(differing)}")
    if not comparable:
        print("different seed or sizes, or time-boxed: counts not compared")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare A.json B.json",
              file=sys.stderr)
        return 2
    doc_a, doc_b = (
        json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        for path in argv
    )
    return compare(doc_a, doc_b, load_contract())
