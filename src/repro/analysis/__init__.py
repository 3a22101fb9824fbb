"""Project-aware static analysis for the reproduction codebase.

Three cooperating pieces:

- :mod:`repro.analysis.engine` — a dependency-free AST rule engine
  (registry, per-file visitor dispatch, ``# repro-lint:`` suppressions);
- :mod:`repro.analysis.rules` — the project rules enforcing RNG
  discipline, cache immutability, float-comparison hygiene, exception
  hygiene, cache-key purity and hot-loop allocation churn, backed by
  the whole-program determinism provers (:mod:`repro.analysis.seedflow`
  seed-flow taint, :mod:`repro.analysis.cachekey` cache-key
  completeness, :mod:`repro.analysis.locks` lock discipline and
  :mod:`repro.analysis.concurrency` process-pool safety);
- :mod:`repro.analysis.cabi` — the C-ABI cross-checker that parses the
  exported prototypes in ``repro/timing/sta_kernel.c`` and verifies the
  ctypes ``argtypes``/``restype`` declaration in
  :mod:`repro.timing.native` against them.  Dtype, contiguity and
  extent of the kernel's array arguments are checked at run time, on
  every call, by :data:`repro.timing.native.KERNEL_ARGS`.

Run the whole gate with ``python -m repro.analysis`` (see
:mod:`repro.analysis.cli`); CI's ``static-analysis`` job does exactly
that plus mypy.
"""

from __future__ import annotations

from repro.analysis.cabi import (
    ABIMismatch,
    CParameter,
    CPrototype,
    UnsupportedDeclarationError,
    check_c_abi,
    check_function,
    ctype_for,
    describe_ctype,
    parse_c_prototypes,
)
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
    catalog_fingerprint,
    iter_python_files,
    known_rule_ids,
    project_check_ids,
    register_project_check,
    register_rule,
    rule_catalog,
    stale_suppressions,
)

# Importing the rules module registers every per-file project rule;
# importing concurrency/seedflow/cachekey/locks registers the
# whole-program check ids.
from repro.analysis import rules as rules  # noqa: F401
from repro.analysis.cachekey import KEY_RULE_ID, check_cache_keys
from repro.analysis.concurrency import (
    GLOBAL_RULE_ID,
    RNG_RULE_ID,
    check_concurrency,
)
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
from repro.analysis.gate import (
    GateReport,
    LINT_CACHE_NAME,
    analyze_project_paths,
    changed_file_subset,
)
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
    "ABIMismatch",
    "CParameter",
    "CPrototype",
    "ClassInfo",
    "FileContext",
    "FileReport",
    "FunctionInfo",
    "GLOBAL_RULE_ID",
    "GUARD_RULE_ID",
    "GateReport",
    "KEY_RULE_ID",
    "LINT_CACHE_NAME",
    "LINT_RULE_ID",
    "ModuleInfo",
    "ORDER_RULE_ID",
    "ProjectModel",
    "RNG_RULE_ID",
    "Resolver",
    "Rule",
    "SEED_FORK_RULE_ID",
    "SEED_SOURCE_RULE_ID",
    "SYNTAX_ERROR_RULE_ID",
    "UnsupportedDeclarationError",
    "Violation",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_project_paths",
    "analyze_source",
    "analyze_source_report",
    "catalog_fingerprint",
    "changed_file_subset",
    "check_c_abi",
    "check_cache_keys",
    "check_concurrency",
    "check_function",
    "check_lock_discipline",
    "check_seed_flow",
    "ctype_for",
    "describe_ctype",
    "format_human",
    "format_json",
    "iter_python_files",
    "known_rule_ids",
    "main",
    "parse_c_prototypes",
    "project_check_ids",
    "register_project_check",
    "register_rule",
    "report_payload",
    "rule_catalog",
    "rules",
    "stale_suppressions",
]
