"""The gate applied to ourselves: ``src/repro`` must be violation-free.

This is the acceptance criterion for the whole static-analysis
subsystem — every rule active, zero findings, and the live C-ABI
contract intact.  A new violation anywhere in the library fails this
test with the exact ``path:line:col`` the CLI would print.
"""

from pathlib import Path

import repro
from repro.analysis import (
    all_rules,
    analyze_paths,
    analyze_project_paths,
    check_c_abi,
    rule_catalog,
)

SRC_REPRO = Path(repro.__file__).resolve().parent


def test_rule_floor():
    assert len(all_rules()) >= 7


def test_catalog_floor_including_project_checks():
    ids = {entry["id"] for entry in rule_catalog()}
    assert len(ids) >= 15
    assert {
        "REPRO-PAR001",
        "REPRO-PAR002",
        "REPRO-SEED001",
        "REPRO-SEED002",
        "REPRO-KEY001",
        "REPRO-LOCK001",
        "REPRO-LOCK002",
        "REPRO-LINT001",
        "REPRO-PERF001",
    } <= ids


def test_src_repro_is_violation_free():
    found = analyze_paths([SRC_REPRO])
    rendered = "\n".join(v.format() for v in found)
    assert not found, f"repro-lint violations in src/repro:\n{rendered}"


def test_src_repro_passes_the_full_project_gate():
    report = analyze_project_paths([SRC_REPRO])
    rendered = "\n".join(v.format() for v in report.violations)
    assert not report.violations, f"gate violations in src/repro:\n{rendered}"
    assert not report.has_syntax_errors


def test_live_c_abi_contract_holds():
    mismatches = check_c_abi()
    rendered = "\n".join(m.format() for m in mismatches)
    assert not mismatches, f"C-ABI skew:\n{rendered}"
