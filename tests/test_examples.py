"""Smoke tests: the example scripts run end to end.

The fast examples run here, the SSTA walkthroughs at reduced sizes;
each must complete and print its headline result.  Keeps deliverable (b) executable at all times.
"""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, argv=None, capsys=None):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    old_argv = sys.argv
    sys.argv = [path] + (argv or [])
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


def test_quickstart_example(capsys):
    out = run_example("quickstart.py", capsys=capsys)
    assert "truncation: r =" in out
    assert "kernel reconstruction" in out


def test_placement_flow_example(capsys):
    out = run_example("placement_flow.py", capsys=capsys)
    assert "HPWL mincut" in out
    assert "% shorter" in out
    assert "elmore[sink]" in out


def test_ssta_flow_example_small(capsys):
    out = run_example("ssta_flow.py", argv=["c880", "300"], capsys=capsys)
    assert "speedup" in out
    assert "e_mu" in out


@pytest.mark.parametrize(
    "name",
    ["kernel_analysis.py"],
)
def test_analysis_examples(name, capsys):
    out = run_example(name, capsys=capsys)
    assert "better fit: gaussian" in out


def test_mlmc_flow_example(capsys):
    out = run_example("mlmc_flow.py", argv=["c880", "400"], capsys=capsys)
    assert "telescoping consistency" in out
    assert "surrogate MLMC" in out
    assert "speedup" in out


def test_advanced_variation_example(capsys):
    out = run_example("advanced_variation.py", argv=["256"], capsys=capsys)
    assert "isotropic? False" in out
    assert "flows agree" in out
