"""``python -m repro.lint`` — command-line front end.

Exit codes: 0 clean (or fully suppressed), 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.diagnostics import format_json, format_text
from repro.lint.engine import run_paths
from repro.lint.rules import all_rules
from repro.lint.sarif import format_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Statically enforce the paper's model invariants: the "
            "id-only model (R1xx), integer quorum math (R2xx), "
            "simulator determinism (R3xx), protocol hygiene (R4xx), "
            "event-plane discipline (R5xx), and async-runtime state "
            "(R7xx)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its invariant and exit",
    )
    return parser


def _selected_rules(select: str):
    """The rules a ``--select`` list names, plus the codes it names that
    no rule has."""
    rules = all_rules()
    if not select:
        return rules, set()
    wanted = {code.strip().upper() for code in select.split(",") if code}
    chosen = [rule for rule in rules if rule.code in wanted]
    return chosen, wanted - {rule.code for rule in chosen}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"      {rule.description}")
        return 0

    paths = args.paths or [Path("src")]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    rules, unknown = _selected_rules(args.select)
    if unknown:
        print(
            f"error: unknown rule code(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    result = run_paths(paths, rules)
    if args.format == "sarif":
        print(format_sarif(result.diagnostics, result.summary, rules=rules))
    else:
        formatter = format_json if args.format == "json" else format_text
        print(formatter(result.diagnostics, result.summary))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
