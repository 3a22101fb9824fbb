"""REPRO-KEY001 — cache-key completeness.

Fixture contracts, the live-tree scope assertion, and the meta-test the
issue demands: deleting any single component from the real
``kle_cache_key`` construction in ``solve_kle`` must make the pass fire
— that is the mechanized version of the solver_seed/oversampling proof
PR 8 did by hand.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_project_paths
from repro.analysis.cachekey import check_cache_keys, key_sites
from repro.analysis.project import ProjectModel

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(repro.__file__).resolve().parent
GALERKIN = SRC_REPRO / "core" / "galerkin.py"


def test_missing_param_fixture_fires_key001():
    report = analyze_project_paths(
        [FIXTURES / "key_bad_missing_param.py"], select=["REPRO-KEY001"]
    )
    assert [v.rule_id for v in report.violations] == ["REPRO-KEY001"]
    assert "tolerance" in report.violations[0].message


def test_complete_key_and_documented_skips_stay_clean():
    report = analyze_project_paths(
        [FIXTURES / "key_good.py"], select=["REPRO-KEY001"]
    )
    assert report.violations == []


def test_live_tree_is_clean_and_inventory_covers_real_sites(
    src_repro_gate, src_repro_model
):
    found = [
        v for v in src_repro_gate.violations if v.rule_id == "REPRO-KEY001"
    ]
    rendered = "\n".join(v.format() for v in found)
    assert not found, f"cache-key violations in src:\n{rendered}"

    paths = {p.replace("\\", "/") for p, _ in key_sites(src_repro_model)}
    # The pass must at least see the KLE disk-cache store, the placement
    # pass-through writer and the native-kernel module memo.
    for expected in (
        "core/galerkin.py",
        "experiments/common.py",
        "timing/native.py",
    ):
        assert any(p.endswith(expected) for p in paths), (
            f"cache-key pass inspected no site in {expected}"
        )


#: Keyword components of the real kle_cache_key(...) call in solve_kle.
_KEY_COMPONENTS = (
    "num_eigenpairs",
    "method",
    "oversampling",
    "power_iterations",
    "solver_seed",
)


@pytest.mark.parametrize("component", _KEY_COMPONENTS)
def test_deleting_any_kle_cache_key_component_fires(tmp_path, component):
    source = GALERKIN.read_text(encoding="utf-8")
    # Surgically drop the component from the kle_cache_key(...) call in
    # solve_kle (and only there — solver.solve passes the same kwargs).
    start = source.index("key = kle_cache_key(")
    end = source.index(")", start)
    block = source[start:end]
    mutated_block = block.replace(f"{component}={component},", "", 1)
    assert mutated_block != block, f"could not drop {component}= from key"
    mutated = source[:start] + mutated_block + source[end:]
    mutant = tmp_path / "galerkin.py"
    mutant.write_text(mutated, encoding="utf-8")

    model = ProjectModel.from_paths([mutant])
    found = check_cache_keys(model)
    assert any(
        v.rule_id == "REPRO-KEY001" and component in v.message for v in found
    ), (
        f"dropping {component} from kle_cache_key went undetected: "
        f"{[v.message for v in found]}"
    )


def test_unmutated_galerkin_is_clean_standalone():
    model = ProjectModel.from_paths([GALERKIN])
    assert check_cache_keys(model) == []
