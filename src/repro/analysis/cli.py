"""The ``repro-lint`` console script.

Usage::

    repro-lint src/                      # lint a tree, text report
    repro-lint --format json src/repro   # machine-readable
    repro-lint --format sarif --output lint.sarif src/
    repro-lint --select NUM001,NUM004 f.py
    repro-lint --list-rules

Exit status: 0 when clean, 1 when findings (or unparsable files) exist,
2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import LintEngine
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import RULE_REGISTRY
from repro.analysis.sarif import render_sarif

__all__ = ["main", "build_parser"]


def _split_rules(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-aware static analysis for the repro codebase: "
        "numerical correctness, determinism, concurrency lifecycles, "
        "hot-path hygiene, parallel/device safety.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (directories are walked for *.py)",
    )
    parser.add_argument(
        "-f",
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=str,
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule_id, cls in sorted(RULE_REGISTRY.items()):
        lines.append(f"{rule_id}  {cls.summary}")
        lines.append(f"        {cls.rationale}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _emit(_list_rules(), args.output)
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")
    select = _split_rules(args.select)
    ignore = _split_rules(args.ignore)
    unknown = sorted(
        set((select or []) + (ignore or [])) - set(RULE_REGISTRY)
    )
    if unknown:
        parser.error(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(RULE_REGISTRY))})"
        )
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"path does not exist: {', '.join(missing)}")

    findings = LintEngine(select=select, ignore=ignore).lint_paths(args.paths)
    if args.format == "sarif":
        _emit(render_sarif(findings).rstrip("\n"), args.output)
    elif args.format == "json":
        _emit(render_json(findings), args.output)
    else:
        _emit(render_text(findings), args.output)
    return 1 if findings else 0


def _emit(text: str, output: str | None) -> None:
    """Write the report to ``output`` (or stdout, pipe-safely)."""
    if output is not None:
        Path(output).write_text(text + "\n", encoding="utf-8")
        return
    try:
        print(text)
    except BrokenPipeError:  # pragma: no cover - pipeline plumbing
        try:
            sys.stdout.close()
        finally:
            raise SystemExit(0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
