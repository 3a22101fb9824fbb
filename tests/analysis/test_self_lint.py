"""The gate applied to ourselves: ``src/repro`` must be violation-free.

This is the acceptance criterion for the whole static-analysis
subsystem — every rule active, zero findings.  A new violation anywhere
in the library fails this test with the exact ``path:line:col`` the CLI
would print.
"""

from repro.analysis import all_rules, rule_catalog


def test_rule_floor():
    assert len(all_rules()) >= 7


def test_catalog_floor_including_project_checks():
    ids = {entry["id"] for entry in rule_catalog()}
    assert len(ids) >= 12
    assert {
        "REPRO-SEED001",
        "REPRO-SEED002",
        "REPRO-LOCK001",
        "REPRO-LOCK002",
        "REPRO-LINT001",
        "REPRO-PERF001",
    } <= ids
    # Retired: RNG001 and SEED001 report every site PAR002 reported,
    # runtime tests through solve_kle catch what KEY001 caught, and no
    # process pool is left for PAR001 to guard.
    assert not {"REPRO-PAR001", "REPRO-PAR002", "REPRO-KEY001"} & ids


def test_src_repro_is_violation_free(src_repro_gate):
    found = [v for r in src_repro_gate.file_reports for v in r.violations]
    rendered = "\n".join(v.format() for v in found)
    assert not found, f"repro-lint violations in src/repro:\n{rendered}"


def test_src_repro_passes_the_full_project_gate(src_repro_gate):
    rendered = "\n".join(v.format() for v in src_repro_gate.violations)
    assert not src_repro_gate.violations, (
        f"gate violations in src/repro:\n{rendered}"
    )
    assert not src_repro_gate.has_syntax_errors
