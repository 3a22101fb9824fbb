"""REPRO-LOCK001/002 — lock-discipline pass and chain-aware suppression.

Covers the fixture contracts for both rules, the live-tree scope
assertions (the pass must see the real service/timing classes that own
locks, and must find real worker roots to reach them from), and the
chain-aware suppression semantics the whole-program gate applies to
multi-file findings.
"""

from pathlib import Path

from repro.analysis import analyze_project_paths
from repro.analysis.locks import lock_classes, worker_roots

FIXTURES = Path(__file__).parent / "fixtures"

LOCK_SELECT = ["REPRO-LOCK001", "REPRO-LOCK002"]


def _gate(fixture, select=LOCK_SELECT):
    report = analyze_project_paths([FIXTURES / fixture], select=list(select))
    return report.violations


def test_unguarded_write_fires_lock001_with_reachability_chain():
    found = _gate("lock_bad_unguarded.py")
    assert [(v.rule_id, v.line) for v in found] == [("REPRO-LOCK001", 18)]
    # The finding must explain *why* the class is considered shared:
    # a chain from a worker root down to the racy method.
    assert found[0].chain


def test_inconsistent_acquisition_order_fires_lock002():
    found = _gate("lock_bad_order.py")
    assert [(v.rule_id, v.line) for v in found] == [("REPRO-LOCK002", 25)]
    # The message names the cycle over the lock tokens involved.
    assert "Ledger._a" in found[0].message
    assert "Ledger._b" in found[0].message


def test_disciplined_class_stays_clean():
    # Locked accesses, double-checked lazy init, consistent ordering.
    assert _gate("lock_good.py") == []


def test_chain_line_suppression_is_honored_and_stale_one_reported():
    report = analyze_project_paths(
        [FIXTURES / "lock_chain_suppressed.py"],
        select=LOCK_SELECT + ["REPRO-LINT001"],
    )
    found = [(v.rule_id, v.line) for v in report.violations]
    # The LOCK001 finding on the unlocked read is suppressed by the
    # directive at its chain line (the locked write); the directive on
    # the unrelated ``label`` read matches nothing and is stale.
    assert found == [("REPRO-LINT001", 29)]


def test_live_tree_is_clean_and_pass_sees_real_lock_owners(
    src_repro_gate, src_repro_model
):
    found = [
        v for v in src_repro_gate.violations if v.rule_id in LOCK_SELECT
    ]
    rendered = "\n".join(v.format() for v in found)
    assert not found, f"lock violations in src:\n{rendered}"

    owners = lock_classes(src_repro_model)
    for expected in (
        "Scheduler",
        "ResultStream",
        "FaultInjector",
        "ArtifactRegistry",
        "STAEngine",
    ):
        assert any(owner.endswith("." + expected) for owner in owners), (
            f"lock pass no longer sees {expected}; owners={owners}"
        )

    roots = worker_roots(src_repro_model)
    root_paths = {root.path.replace("\\", "/") for root in roots}
    assert any("service/" in p for p in root_paths), (
        "no worker roots discovered in the service layer — reachability "
        "would silently mark every class thread-confined"
    )
