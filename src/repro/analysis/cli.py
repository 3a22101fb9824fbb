"""``python -m repro.analysis`` — the repo's static-analysis gate.

Runs the per-file lint rules *and* the whole-program analyses (project
model + concurrency safety + seed-flow taint + cache-key completeness
+ lock discipline + stale suppressions) over
the given paths (default: ``src/repro``) and, unless
``--no-cabi`` is passed, cross-checks the native kernel's C ABI against
its ctypes declaration.  Exit status:

- ``0`` — no violations and (when checked) no ABI mismatches;
- ``1`` — at least one violation or ABI mismatch;
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

from repro.analysis.cabi import ABIMismatch, check_c_abi
from repro.analysis.engine import Violation, rule_catalog
from repro.analysis.gate import analyze_project_paths, changed_file_subset
from repro.analysis.reporters import format_human, format_json

__all__ = ["build_parser", "explain_rule", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-aware static analysis: reproducibility lint rules "
            "plus the sta_kernel.c / ctypes C-ABI cross-check."
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
        "--no-cabi",
        action="store_true",
        help="skip the C-ABI cross-check",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help=(
            "skip the whole-program analyses (concurrency, seed flow, "
            "cache keys, locks, stale suppressions); per-file rules only"
        ),
    )
    parser.add_argument(
        "--cabi-only",
        action="store_true",
        help="run only the C-ABI cross-check (no Python lint)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the per-file phase (default 1; "
            "0 means one per CPU); output is identical at any count"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental findings cache (full re-analysis)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "incremental cache directory "
            "(default: $REPRO_CACHE_DIR/lint)"
        ),
    )
    parser.add_argument(
        "--changed-since",
        metavar="REF",
        help=(
            "smoke mode: per-file rules only, restricted to files "
            "changed since git REF plus their import-graph dependents "
            "(whole-program passes are skipped — run the full gate "
            "before merging)"
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

    violations: List[Violation] = []
    files_checked = 0
    syntax_failure = False
    cache_note: Optional[str] = None
    if not options.cabi_only:
        try:
            paths: List[str] = list(options.paths)
            run_project = not options.no_project
            if options.changed_since is not None:
                paths = changed_file_subset(paths, options.changed_since)
                run_project = False
            if paths:
                report = analyze_project_paths(
                    paths,
                    select=_split_ids(options.select),
                    ignore=_split_ids(options.ignore),
                    project=run_project,
                    jobs=options.jobs,
                    use_cache=not options.no_cache,
                    cache_dir=options.cache_dir,
                )
                violations = report.violations
                files_checked = report.files_checked
                syntax_failure = report.has_syntax_errors
                if not options.no_cache:
                    reused = files_checked - len(report.reanalyzed_paths)
                    cache_note = (
                        f"incremental cache: {reused}/{files_checked} "
                        f"file(s) reused, whole-program findings "
                        f"{'reused' if report.project_from_cache else 'recomputed'}"
                        if run_project
                        else f"incremental cache: {reused}/{files_checked} "
                        f"file(s) reused"
                    )
        except FileNotFoundError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2
        except (RuntimeError, ValueError) as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2
        violations = list(violations)

    mismatches: Optional[List[ABIMismatch]] = None
    if options.cabi_only or not options.no_cabi:
        mismatches = check_c_abi()

    if options.json:
        print(
            format_json(
                violations, mismatches, files_checked=files_checked
            )
        )
    else:
        print(
            format_human(
                violations,
                mismatches,
                files_checked=files_checked,
                cache_note=cache_note,
            )
        )
    if syntax_failure:
        return 2
    return 1 if violations or mismatches else 0
