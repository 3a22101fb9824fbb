"""``python -m repro.analysis`` — the repo's static-analysis gate.

Runs the per-file lint rules *and* the whole-program analyses (project
model + seed-flow taint + lock discipline + stale suppressions) over
the given paths (default: ``src/repro``), cold, in one pass per file.
The native kernel's C prototype is checked against its ctypes table by
a tier-1 test (``tests/timing/test_kernel_contract.py``), not here.
Exit status:

- ``0`` — no violations;
- ``1`` — at least one violation;
- ``2`` — usage error (unknown rule id, missing path), or any analyzed
  file that does not parse (REPRO-SYNTAX) — an unparseable file means
  the rest of the report is incomplete, which is an infrastructure
  failure, not a mere finding.

This is the command CI's ``static-analysis`` job runs; it is also the
local pre-commit check (`python -m repro.analysis`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.engine import rule_catalog
from repro.analysis.gate import analyze_project_paths
from repro.analysis.reporters import format_human, format_json

__all__ = ["build_parser", "explain_rule", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-aware static analysis: per-file reproducibility "
            "lint rules plus whole-program determinism checks."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE-ID",
        help=(
            "print one rule's full contract (title, rationale, example) "
            "and exit; unknown ids exit 2"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help=(
            "skip the whole-program analyses (seed flow, locks, stale "
            "suppressions); per-file rules only"
        ),
    )
    return parser


def explain_rule(rule_id: str) -> int:
    """Print one rule's contract — title, rationale, violating example —
    and return the exit code (0, or 2 for ids not in the catalog)."""
    wanted = rule_id.strip()
    for entry in rule_catalog():
        if entry["id"] != wanted:
            continue
        print(f"{entry['id']}: {entry['title']}")
        print()
        for line in entry["rationale"].splitlines():
            print(f"  {line}")
        example = entry.get("example", "")
        if example:
            print()
            print("  example (violates this rule):")
            for line in example.splitlines():
                print(f"    {line}")
        return 0
    known = ", ".join(sorted(e["id"] for e in rule_catalog()))
    print(
        f"repro-lint: error: unknown rule id {wanted!r}; known: {known}",
        file=sys.stderr,
    )
    return 2


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for entry in rule_catalog():
            print(f"{entry['id']}: {entry['title']}")
            print(f"    {entry['rationale']}")
        return 0

    if options.explain is not None:
        return explain_rule(options.explain)

    try:
        report = analyze_project_paths(
            options.paths,
            select=_split_ids(options.select),
            ignore=_split_ids(options.ignore),
            project=not options.no_project,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    render = format_json if options.json else format_human
    print(render(report.violations, files_checked=report.files_checked))
    if report.has_syntax_errors:
        return 2
    return 1 if report.violations else 0
