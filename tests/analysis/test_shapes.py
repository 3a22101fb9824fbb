"""REPRO-SHAPE001/002: symbolic shape lattice + native buffer obligations.

Fixture-driven coverage of the broadcast checker and the kernel-boundary
size prover, the live-tree obligation inventory (every unprovable pin
argument reported distinctly, and suppressed with a hand proof), and the
meta-mutation tests: re-introducing the historical scratch/arena sizing
bugs into a copy of ``repro/timing`` must produce SHAPE002 findings at
the offending allocation.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_project_paths
from repro.analysis.project import ProjectModel
from repro.analysis.shapes import BUFFER_RULE_ID, SHAPE_RULE_ID, check_shapes

FIXTURES = Path(__file__).parent / "fixtures"
SRC_TIMING = Path(repro.__file__).resolve().parent / "timing"


def rule_violations(fixture: str, rule_id: str):
    report = analyze_project_paths(
        [FIXTURES / fixture], select={rule_id}, use_cache=False
    )
    return [v for v in report.violations if v.rule_id == rule_id]


# -- SHAPE001: broadcast/shape mismatch -------------------------------


def test_shape_good_fixture_is_clean():
    assert rule_violations("shape_good.py", SHAPE_RULE_ID) == []


def test_provable_broadcast_mismatches_are_flagged():
    found = rule_violations("shape_bad_broadcast.py", SHAPE_RULE_ID)
    assert [v.line for v in found] == [14, 20]
    for violation in found:
        assert "provably not broadcastable" in violation.message


# -- SHAPE002: native buffer obligations ------------------------------


def test_native_good_fixture_discharges_every_obligation():
    assert rule_violations("shape_native_good.py", BUFFER_RULE_ID) == []


def test_native_bad_fixture_reports_each_failure_mode_distinctly():
    found = rule_violations("shape_native_bad.py", BUFFER_RULE_ID)
    unprovable = [
        v for v in found if "not statically derivable" in v.message
    ]
    too_small = [v for v in found if "cannot prove" in v.message]
    assert len(found) == 5
    # The three pin tables have no affine extent in sta_kernel.c and are
    # deliberately left unsuppressed here: the checker must refuse to
    # guess and say so, distinctly from a failed proof.
    assert sorted(v.message.split("'")[1] for v in unprovable) == [
        "p_slot",
        "p_step2",
        "p_wd",
    ]
    # The two seeded under-allocations report at the allocation site
    # (where the fix goes), chained to the kernel call.
    assert {v.message.split("'")[1] for v in too_small} == {
        "g_bd",
        "scratch",
    }
    for violation in too_small:
        assert violation.path.endswith("shape_native_bad.py")
        assert violation.chain, "expected a chain to the call site"
    lines = {v.message.split("'")[1]: v.line for v in too_small}
    assert lines["g_bd"] == 44
    assert lines["scratch"] == 57


# -- live tree --------------------------------------------------------


def test_live_tree_has_only_the_hand_proven_pin_obligations():
    model = ProjectModel.from_paths([SRC_TIMING])
    found = check_shapes(model)
    buffer_findings = [v for v in found if v.rule_id == BUFFER_RULE_ID]
    assert len(buffer_findings) == 3
    for violation in buffer_findings:
        # Each is the distinct "refuse to guess" report for a pin-table
        # argument, covered by a justified suppression in compiled.py
        # (the full-gate self-lint asserts the tree is clean).
        assert "not statically derivable" in violation.message
        assert violation.message.split("'")[1] in (
            "p_slot",
            "p_wd",
            "p_step2",
        )
    assert not [v for v in found if v.rule_id == SHAPE_RULE_ID]


# -- meta-mutation: the checker must catch the historical sizing bugs --


def mutated_findings(tmp_path: Path, old: str, new: str):
    mutated = tmp_path / "timing"
    shutil.copytree(SRC_TIMING, mutated)
    target = mutated / "compiled.py"
    text = target.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor not found: {old!r}"
    target.write_text(text.replace(old, new), encoding="utf-8")
    line = 0
    if new.strip():
        line = next(
            index
            for index, content in enumerate(
                target.read_text(encoding="utf-8").splitlines(), start=1
            )
            if new.splitlines()[0] in content
        )
    return check_shapes(ProjectModel.from_paths([mutated])), line


def test_dropping_the_thread_factor_from_scratch_fails_shape002(tmp_path):
    found, line = mutated_findings(
        tmp_path,
        "kscratch = np.empty(4 * block * threads)",
        "kscratch = np.empty(4 * block)",
    )
    hits = [
        v
        for v in found
        if "cannot prove" in v.message
        and "'scratch' of sta_eval_gates_mt()" in v.message
    ]
    assert hits, "dropped thread factor must fail the mt scratch proof"
    assert all(v.line == line for v in hits)


def test_shrinking_an_arena_by_one_slot_fails_shape002(tmp_path):
    found, line = mutated_findings(
        tmp_path,
        "arena_a = np.empty(width * block)",
        "arena_a = np.empty(width * block - 1)",
    )
    hits = [
        v
        for v in found
        if "cannot prove" in v.message and "'arena_a'" in v.message
    ]
    assert len(hits) == 1
    assert all(v.line == line for v in hits)


def test_dropping_an_assert_pin_fails_the_gate_table_proof(tmp_path):
    found, _ = mutated_findings(
        tmp_path,
        "assert self._k_bd.size == self._k_fanin.size",
        "pass  # pin dropped",
    )
    hits = [
        v
        for v in found
        if "cannot prove" in v.message and "'g_bd'" in v.message
    ]
    assert len(hits) == 1, "unpinned g_bd must fail the proof"
