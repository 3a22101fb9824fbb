"""REPRO-PERF001: allocation churn inside hot-module loops."""

from pathlib import Path

from repro.analysis import analyze_project_paths, analyze_source

FIXTURES = Path(__file__).parent / "fixtures"
PERF_RULE_ID = "REPRO-PERF001"


def perf_violations(fixture: str):
    report = analyze_project_paths(
        [FIXTURES / "timing" / fixture],
        select={PERF_RULE_ID},
    )
    return [v for v in report.violations if v.rule_id == PERF_RULE_ID]


def test_loop_allocations_in_a_hot_module_are_flagged():
    found = perf_violations("perf_bad_alloc.py")
    assert [v.line for v in found] == [16, 18, 22, 32]
    spellings = [v.message.split("(...)")[0] for v in found]
    assert spellings == [
        "np.zeros",
        "np.concatenate",
        "np.empty",
        ".astype",
    ]
    for violation in found:
        assert "every iteration of the enclosing" in violation.message


def test_hoisted_allocations_are_clean():
    assert perf_violations("perf_good.py") == []


def test_the_same_code_outside_hot_modules_is_not_flagged():
    source = (FIXTURES / "timing" / "perf_bad_alloc.py").read_text(
        encoding="utf-8"
    )
    found = analyze_source(source, "tests/analysis/fixtures/relocated.py")
    assert not [v for v in found if v.rule_id == PERF_RULE_ID]
