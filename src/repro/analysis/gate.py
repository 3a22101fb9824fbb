"""Gate orchestrator: per-file rules + whole-program checks, one verdict.

The per-file engine (:mod:`repro.analysis.engine`) and the
whole-program analyses (:mod:`repro.analysis.seedflow`,
:mod:`repro.analysis.locks`) each produce raw findings; this module
runs them all over one set of paths, applies every file's suppression
table uniformly to both kinds, runs the stale-suppression check
(REPRO-LINT001) over the combined pre-suppression findings, and returns
a single sorted violation list.  ``python -m repro.analysis`` and the
self-lint test both call :func:`analyze_project_paths` so the CLI and
CI can never disagree about what the gate means.

Every run is cold and does each piece of work once: each file is read,
parsed and tokenized exactly once, its tree feeds both the per-file
rules and the one :class:`ProjectModel` the whole-program passes share.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.analysis.locks import check_lock_discipline
from repro.analysis.seedflow import check_seed_flow
from repro.analysis.engine import (
    LINT_RULE_ID,
    SYNTAX_ERROR_RULE_ID,
    FileReport,
    Violation,
    _file_report,
    _parse,
    all_rules,
    known_rule_ids,
    stale_suppressions,
)
from repro.analysis.project import ProjectModel, iter_modules

__all__ = [
    "GateReport",
    "analyze_project_paths",
]


@dataclass
class GateReport:
    """Combined result of one full gate run."""

    violations: List[Violation]
    files_checked: int
    file_reports: List[FileReport]

    @property
    def has_syntax_errors(self) -> bool:
        """Whether any analyzed file failed to parse (CLI exit 2)."""
        return any(
            v.rule_id == SYNTAX_ERROR_RULE_ID for v in self.violations
        )


def _active_ids(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Set[str]:
    """Validate select/ignore against the combined catalog and return the
    set of active rule/check ids (ValueError on unknown ``select`` ids,
    mirroring the per-file engine's behavior)."""
    known = known_rule_ids()
    active = set(known)
    if select is not None:
        wanted = set(select)
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown rule ids in select: {sorted(unknown)}")
        active = wanted | {SYNTAX_ERROR_RULE_ID}
    if ignore is not None:
        active -= set(ignore)
    return active


def _chain_suppressed(
    finding: Violation, report_by_path: Dict[str, FileReport]
) -> bool:
    """Whole-program findings honor suppressions at *every* link of
    their report chain: a justification belongs wherever the code being
    justified lives (the fork site, the root submit call, the partner
    access), not only at the primary line.  Per-line directives count in
    any chain file; file-wide directives only in the primary file —
    silencing a whole module because one call chain passes through it
    would be far too blunt."""
    primary = report_by_path.get(finding.path)
    if primary is not None and primary.suppressed(finding):
        return True
    for chain_path in {p for p, _ in finding.chain if p != finding.path}:
        report = report_by_path.get(chain_path)
        if report is None:
            continue
        per_line = report.suppressions.per_line
        for line in finding.chain_lines_in(chain_path):
            scope = per_line.get(line, set())
            if "all" in scope or finding.rule_id in scope:
                return True
    return False


def _project_findings(model: ProjectModel) -> List[Violation]:
    """Raw findings of every whole-program pass, pre-suppression."""
    return sorted(check_seed_flow(model) + check_lock_discipline(model))


def analyze_project_paths(
    paths: Iterable[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project: bool = True,
) -> GateReport:
    """Run the full static-analysis gate over ``paths``.

    Per-file rules run through the engine; with ``project`` true (the
    default) the whole-program checks — REPRO-SEED001/002 seed-flow
    taint, REPRO-LOCK001/002 lock discipline, and the REPRO-LINT001
    stale-suppression audit — run over a
    :class:`ProjectModel` built from the same parsed files.
    Whole-program findings honor the same ``# repro-lint:`` suppression
    directives as per-file ones, at the primary line or any line of the
    report chain (see :func:`_chain_suppressed`).
    """
    active = _active_ids(select, ignore)
    rules = [rule for rule in all_rules() if rule.id in active]
    model = ProjectModel()
    reports: List[FileReport] = []
    for file_path, module_name in iter_modules(paths):
        path = str(file_path)
        source = file_path.read_text(encoding="utf-8")
        parsed = _parse(source, path)
        if project and isinstance(parsed, ast.Module):
            model.add_module(module_name, path, source, parsed)
        reports.append(_file_report(path, source, parsed, rules))
    report_by_path = {report.path: report for report in reports}

    violations = [
        v for report in reports for v in report.violations if v.rule_id in active
    ]

    if project:
        project_findings = [
            finding
            for finding in _project_findings(model)
            if finding.rule_id in active
        ]
        violations.extend(
            finding
            for finding in project_findings
            if not _chain_suppressed(finding, report_by_path)
        )
        if LINT_RULE_ID in active:
            violations.extend(
                stale_suppressions(
                    reports, project_findings, active_ids=active
                )
            )

    return GateReport(
        violations=sorted(violations),
        files_checked=len(reports),
        file_reports=reports,
    )
