"""REPRO-SEED001/002 — the interprocedural seed-flow pass.

Fixture contracts (each rule has a firing and a silent shape) plus the
live-tree scope assertions: the pass must actually visit the service,
solver and MLMC packages — a pass that silently stops seeing a package
would look identical to a clean run.
"""

from pathlib import Path

from repro.analysis import analyze_project_paths
from repro.analysis.seedflow import sink_sites

FIXTURES = Path(__file__).parent / "fixtures"
SEED_IDS = ("REPRO-SEED001", "REPRO-SEED002")


def _gate(fixture, select=SEED_IDS):
    report = analyze_project_paths([FIXTURES / fixture], select=list(select))
    return report.violations


def test_entropy_fixture_fires_seed001_three_ways():
    # Direct unseeded, wall-clock through a local, and entropy through a
    # helper call — the interprocedural case the per-file rule missed.
    found = _gate("seed_bad_entropy.py")
    assert [v.rule_id for v in found] == ["REPRO-SEED001"] * 3


def test_alias_fixture_fires_seed002_for_both_fork_shapes():
    # Same seed into two direct constructions, and direct + helper.
    found = _gate("seed_bad_alias.py")
    assert [v.rule_id for v in found] == ["REPRO-SEED002"] * 2
    # The second consumer is flagged with a chain back to the first.
    assert all(v.chain for v in found)


def test_sanctioned_shapes_stay_clean():
    # Single consumption, branch-exclusive arms, SeedSequence spawning.
    assert _gate("seed_good.py") == []


def test_rng_reached_directly_and_through_helpers():
    # Unseeded RNG under a pool needs no reachability analysis: the
    # per-file REPRO-RNG001 flags the legacy call inside the helper and
    # the whole-program REPRO-SEED001 the seedless default_rng(), and
    # the full catalog reports nothing else.
    report = analyze_project_paths([FIXTURES / "seed_bad_pool_workers.py"])
    found = [(v.rule_id, v.line) for v in report.violations]
    assert found == [("REPRO-RNG001", 15), ("REPRO-SEED001", 23)]
    messages = {v.line: v.message for v in report.violations}
    assert "randn" in messages[15]
    assert "default_rng() without a seed" in messages[23]


def test_live_tree_is_clean_and_scope_covers_all_packages(
    src_repro_gate, src_repro_model
):
    found = [v for v in src_repro_gate.violations if v.rule_id in SEED_IDS]
    rendered = "\n".join(v.format() for v in found)
    assert not found, f"seed-flow violations in src:\n{rendered}"

    paths = {p.replace("\\", "/") for p, _ in sink_sites(src_repro_model)}
    for package in ("service/", "solvers/", "mlmc/"):
        assert any(package in p for p in paths), (
            f"seed-flow pass inspected no sink in {package} — "
            f"silent scope loss"
        )
