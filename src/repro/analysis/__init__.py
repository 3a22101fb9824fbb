"""Project-aware static analysis for the reproduction codebase.

Two cooperating pieces:

- :mod:`repro.analysis.engine` — a dependency-free AST rule engine
  (registry, per-file visitor dispatch, ``# repro-lint:`` suppressions);
- :mod:`repro.analysis.rules` — the project rules enforcing RNG
  discipline, cache immutability, float-comparison hygiene, exception
  hygiene, cache-key purity and hot-loop allocation churn, backed by
  the whole-program determinism provers (:mod:`repro.analysis.seedflow`
  seed-flow taint and :mod:`repro.analysis.locks` lock discipline) over
  one shared :class:`~repro.analysis.project.ProjectModel`.

Run the whole gate with ``python -m repro.analysis`` (see
:mod:`repro.analysis.cli`); CI's ``static-analysis`` job does exactly
that plus mypy.  The native kernel is not checked here: its C prototype
is compared with :data:`repro.timing.native.KERNEL_ARGS` by a tier-1
test, and every call's arguments are checked at run time against the
same table.
"""

from __future__ import annotations

from repro.analysis.engine import (
    LINT_RULE_ID,
    SYNTAX_ERROR_RULE_ID,
    FileContext,
    FileReport,
    Rule,
    Violation,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    analyze_source_report,
    iter_python_files,
    known_rule_ids,
    project_check_ids,
    register_project_check,
    register_rule,
    rule_catalog,
    stale_suppressions,
)

# Importing the rules module registers every per-file project rule;
# importing seedflow/locks registers the whole-program check ids.
from repro.analysis import rules as rules  # noqa: F401
from repro.analysis.locks import (
    GUARD_RULE_ID,
    ORDER_RULE_ID,
    check_lock_discipline,
)
from repro.analysis.seedflow import (
    SEED_FORK_RULE_ID,
    SEED_SOURCE_RULE_ID,
    check_seed_flow,
)
from repro.analysis.gate import GateReport, analyze_project_paths
from repro.analysis.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Resolver,
)
from repro.analysis.cli import main
from repro.analysis.reporters import format_human, format_json, report_payload

__all__ = [
    "ClassInfo",
    "FileContext",
    "FileReport",
    "FunctionInfo",
    "GUARD_RULE_ID",
    "GateReport",
    "LINT_RULE_ID",
    "ModuleInfo",
    "ORDER_RULE_ID",
    "ProjectModel",
    "Resolver",
    "Rule",
    "SEED_FORK_RULE_ID",
    "SEED_SOURCE_RULE_ID",
    "SYNTAX_ERROR_RULE_ID",
    "Violation",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_project_paths",
    "analyze_source",
    "analyze_source_report",
    "check_lock_discipline",
    "check_seed_flow",
    "format_human",
    "format_json",
    "iter_python_files",
    "known_rule_ids",
    "main",
    "project_check_ids",
    "register_project_check",
    "register_rule",
    "report_payload",
    "rule_catalog",
    "rules",
    "stale_suppressions",
]
