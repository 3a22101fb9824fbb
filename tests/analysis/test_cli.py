"""Exit-code and output-format tests for ``python -m repro.analysis``."""

import json

import pytest

from repro.analysis.cli import main

CLEAN_SOURCE = '"""Module."""\n\n\ndef f(x: int) -> int:\n    return x\n'
BROKEN_SOURCE = (
    '"""Module."""\n'
    "import numpy as np\n\n\n"
    "def f(x=[]):\n"
    "    np.random.seed(0)\n"
    "    return x == 0.25\n"
)


@pytest.fixture()
def clean_tree(tmp_path):
    (tmp_path / "mod.py").write_text(CLEAN_SOURCE)
    return tmp_path


@pytest.fixture()
def broken_tree(tmp_path):
    (tmp_path / "mod.py").write_text(BROKEN_SOURCE)
    return tmp_path


def test_clean_tree_exits_zero(clean_tree, capsys):
    assert main([str(clean_tree)]) == 0
    out = capsys.readouterr().out
    assert "repro-lint: clean (1 file(s) checked)" in out


def test_violations_exit_one(broken_tree, capsys):
    assert main([str(broken_tree)]) == 1
    out = capsys.readouterr().out
    assert "REPRO-RNG001" in out
    assert "REPRO-FLOAT001" in out
    assert "REPRO-DEF001" in out


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_select_id_is_usage_error(clean_tree, capsys):
    code = main([str(clean_tree), "--select", "NO-SUCH"])
    assert code == 2
    assert "unknown rule ids" in capsys.readouterr().err


def test_select_narrows_to_one_rule(broken_tree, capsys):
    code = main(
        [str(broken_tree), "--select", "REPRO-FLOAT001"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO-FLOAT001" in out
    assert "REPRO-RNG001" not in out


def test_ignore_drops_rules(broken_tree, capsys):
    code = main(
        [
            str(broken_tree),
            "--ignore",
            "REPRO-RNG001,REPRO-FLOAT001,REPRO-DEF001",
        ]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_json_report_is_machine_readable(broken_tree, capsys):
    assert main([str(broken_tree), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["summary"]["clean"] is False
    rules_hit = {v["rule"] for v in payload["violations"]}
    assert "REPRO-RNG001" in rules_hit
    assert {entry["id"] for entry in payload["rules"]} >= rules_hit


def test_json_clean_report(clean_tree, capsys):
    assert main([str(clean_tree), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["clean"] is True
    assert payload["violations"] == []


def test_list_rules_prints_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "REPRO-RNG001",
        "REPRO-CACHE001",
        "REPRO-FLOAT001",
        "REPRO-DEF001",
        "REPRO-EXC001",
        "REPRO-TIME001",
        "REPRO-PERF001",
        "REPRO-SEED001",
        "REPRO-SEED002",
        "REPRO-LOCK001",
        "REPRO-LOCK002",
    ):
        assert rule_id in out
    assert "REPRO-RNG002" not in out  # retired into REPRO-SEED001


@pytest.fixture()
def mixed_tree(tmp_path):
    """One unparseable file next to one with ordinary violations."""
    (tmp_path / "mod.py").write_text(BROKEN_SOURCE)
    (tmp_path / "broken.py").write_text('"""Doc."""\n\ndef oops(:\n')
    return tmp_path


def test_mixed_tree_exits_two(mixed_tree, capsys):
    # An unparseable file means the report is incomplete — that is an
    # infrastructure failure (exit 2), not a mere finding (exit 1).
    assert main([str(mixed_tree)]) == 2
    out = capsys.readouterr().out
    assert "REPRO-SYNTAX" in out
    assert "REPRO-RNG001" in out


def test_mixed_tree_json_is_valid_and_complete(mixed_tree, capsys):
    assert main([str(mixed_tree), "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 2
    rules_hit = {v["rule"] for v in payload["violations"]}
    assert "REPRO-SYNTAX" in rules_hit
    assert "REPRO-RNG001" in rules_hit


def test_no_project_skips_whole_program_checks(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        '"""Doc."""\n\n'
        "VALUE = 1  # repro-lint: disable=REPRO-RNG001\n"
    )
    assert main([str(tmp_path)]) == 1
    assert "REPRO-LINT001" in capsys.readouterr().out
    assert main([str(tmp_path), "--no-project"]) == 0
    assert "clean" in capsys.readouterr().out


def test_list_rules_includes_project_checks(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "REPRO-LOCK001",
        "REPRO-LINT001",
    ):
        assert rule_id in out
    # Retired whole-program checks.
    for rule_id in ("REPRO-PAR001", "REPRO-PAR002", "REPRO-KEY001"):
        assert rule_id not in out


def test_explain_covers_every_registered_rule(capsys):
    from repro.analysis.engine import rule_catalog

    catalog = rule_catalog()
    assert catalog, "rule catalog is empty"
    for entry in catalog:
        assert main(["--explain", entry["id"]]) == 0
        out = capsys.readouterr().out
        assert entry["id"] in out
        assert entry["title"] in out
        # Every rule ships a minimal violating example.
        assert "example" in out.lower()


def test_explain_unknown_rule_is_usage_error(capsys):
    assert main(["--explain", "REPRO-NOPE999"]) == 2
    err = capsys.readouterr().err
    assert "REPRO-NOPE999" in err
    assert "REPRO-RNG001" in err  # lists the known ids
