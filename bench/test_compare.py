"""Unit tests of ``python -m bench compare`` on synthetic runs."""

import json

import pytest

from bench import compare
from bench.compare import verdict


def around(center, spread, n=10):
    """``n`` values alternating within ``center × (1 ± spread)``."""
    return [center * (1 + spread * (1 if i % 2 else -1) * (i % 3) / 2) for i in range(n)]


def test_a_gain_needs_ten_pairs_nine_wins_and_more_than_the_parent_iqr():
    parent = around(100.0, 0.02)
    assert verdict(parent, [v * 0.8 for v in parent], 0.1, False) == "better"
    # Same improvement, too few pairs: no gain claimed, and not worse.
    assert verdict(parent[:9], [v * 0.8 for v in parent[:9]], 0.1, False) == "flat"
    # Wins in 8 of 10 pairs only.
    mixed = [v * 0.8 for v in parent[:8]] + [v * 1.01 for v in parent[8:]]
    assert verdict(parent, mixed, 0.1, False) == "flat"
    # Wins every pair, but by less than the parent's own IQR.
    assert verdict(parent, [v - 0.01 for v in parent], 0.1, False) == "flat"


def test_ties_count_for_neither_side():
    parent = around(100.0, 0.02)
    tied = list(parent)
    assert verdict(parent, tied, 0.1, False) == "flat"


def test_worse_by_more_than_the_bound_is_a_regression():
    parent = around(100.0, 0.02)
    assert verdict(parent, [v * 1.15 for v in parent], 0.1, False) == "worse"
    assert verdict(parent, [v * 1.05 for v in parent], 0.1, False) == "flat"


def test_higher_is_better_flips_the_direction():
    parent = around(40.0, 0.02)
    assert verdict(parent, [v * 0.85 for v in parent], 0.1, True) == "worse"
    assert verdict(parent, [v * 1.25 for v in parent], 0.1, True) == "better"


def test_a_parent_noisier_than_the_bound_leaves_the_metric_unresolved():
    parent = around(100.0, 0.5)
    assert verdict(parent, [v * 1.2 for v in parent], 0.1, False) == "unresolved"
    # Unless every change run beats every parent run.
    assert verdict(parent, [10.0] * 3, 0.1, False) == "flat"


def _runs(path, values, trace=False):
    runs = [
        {
            "seed": i,
            "trace": trace,
            "workloads": {
                "table1_row": {
                    "metrics": {
                        name: {"value": value, "unit": "x"}
                        for name, value in entry.items()
                    }
                }
            },
        }
        for i, entry in enumerate(values)
    ]
    path.write_text(json.dumps({"runs": runs}))


def test_main_reads_run_files_skips_traced_runs_and_exits_1_on_a_regression(
    tmp_path, capsys
):
    declared = json.loads(compare.BENCHMARK.read_text())["end_to_end"]
    names = [spec["name"] for spec in declared]
    base = {name: 100.0 + i for i, name in enumerate(names)}
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    _runs(parent, [base] * 10)
    _runs(change, [base] * 10)
    assert compare.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out.count("flat") == len(names)

    slower = dict(base, op_p50_ms=base["op_p50_ms"] * 1.5)
    _runs(change, [slower] * 10)
    traced = tmp_path / "traced.json"
    _runs(traced, [{"op_p50_ms": 1.0}] * 10, trace=True)
    assert compare.main([str(parent), str(change), str(traced)]) == 1
    out = capsys.readouterr().out
    assert "op_p50_ms" in out and "worse" in out


@pytest.mark.parametrize("higher", [False, True])
def test_verdicts_are_one_of_four(higher):
    parent = around(10.0, 0.1)
    for factor in (0.5, 0.95, 1.0, 1.05, 2.0):
        assert verdict(parent, [v * factor for v in parent], 0.1, higher) in {
            "better", "worse", "unresolved", "flat",
        }
