"""Tests for the REPRO-PAR001 concurrency-safety analysis."""

from pathlib import Path

from repro.analysis import analyze_project_paths
from repro.analysis.concurrency import GLOBAL_RULE_ID

FIXTURES = Path(__file__).parent / "fixtures"
PAR_IDS = {GLOBAL_RULE_ID}


def _par_violations(*files):
    report = analyze_project_paths(
        [FIXTURES / name for name in files], select=PAR_IDS
    )
    return report.violations


def test_global_write_below_the_submitted_function_is_flagged():
    found = _par_violations("par_bad_global.py")
    assert [v.rule_id for v in found] == [GLOBAL_RULE_ID]
    violation = found[0]
    # The .append on RESULTS sits inside record(), one call deep.
    assert violation.line == 16
    assert "'RESULTS'" in violation.message
    assert "worker -> record" in violation.message


def test_rng_reached_directly_and_through_helpers():
    # Unseeded RNG under a pool needs no reachability analysis: the
    # per-file REPRO-RNG001 flags the legacy call inside the helper and
    # the whole-program REPRO-SEED001 the seedless default_rng(), and
    # the full catalog reports nothing else.
    report = analyze_project_paths([FIXTURES / "par_bad_rng.py"])
    found = [(v.rule_id, v.line) for v in report.violations]
    assert found == [("REPRO-RNG001", 15), ("REPRO-SEED001", 23)]
    messages = {v.line: v.message for v in report.violations}
    assert "randn" in messages[15]
    assert "default_rng() without a seed" in messages[23]


def test_seeded_workers_produce_no_findings():
    assert _par_violations("par_good.py") == []


def test_justified_suppression_is_honored(tmp_path):
    source = (FIXTURES / "par_bad_global.py").read_text()
    source = source.replace(
        "    RESULTS.append(value)",
        "    RESULTS.append(value)  # repro-lint: disable=REPRO-PAR001",
    )
    target = tmp_path / "suppressed.py"
    target.write_text(source)
    report = analyze_project_paths([target], select=PAR_IDS)
    assert report.violations == []


def test_select_can_narrow_to_one_concurrency_rule():
    # The RNG fixture's RNG001/SEED001 findings drop out of the run.
    report = analyze_project_paths(
        [FIXTURES / "par_bad_global.py", FIXTURES / "par_bad_rng.py"],
        select={GLOBAL_RULE_ID},
    )
    assert {v.rule_id for v in report.violations} == {GLOBAL_RULE_ID}
