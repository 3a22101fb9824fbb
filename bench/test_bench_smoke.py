"""Smoke test of the whole benchmark at toy sizes (about half a minute).

Runs every workload untraced and traced through the command line and
checks the result contract: every metric declared in ``BENCHMARK.json``
is emitted with its unit, names are well formed, failures are counted,
and a run leaves ``git status`` of the repository unchanged.
"""

import itertools
import json
import re
import subprocess
import sys

import pytest

from bench import driver
from bench.driver import BENCHMARK, ORDER, ROOT
from bench.workloads import UNTRACED, Workload

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def git_status():
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--ignored=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seconds", "1.0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def declared():
    return json.loads(BENCHMARK.read_text())


@pytest.fixture(scope="module")
def runs():
    before = git_status()
    untraced = run_bench()
    traced = run_bench("--trace", "1")
    return before, untraced, traced, git_status()


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_emitted_with_its_unit(declared, runs, kind):
    _, untraced, traced, _ = runs
    result = json.loads((untraced if kind == "end_to_end" else traced)[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(ORDER)
    assert set(result["metrics"]) == set(ORDER)
    for workload, metrics in result["metrics"].items():
        for spec in declared[kind]:
            metric = metrics[spec["name"]]
            assert metric["unit"] == spec["unit"], (workload, spec["name"])
            assert isinstance(metric["value"], (int, float))
        assert set(metrics) == {spec["name"] for spec in declared[kind]}
    # The human-readable lines name each metric with its unit too.
    text = "\n".join(untraced if kind == "end_to_end" else traced)
    for workload in ORDER:
        for spec in declared[kind]:
            assert f"{workload} {spec['name']} = " in text


def test_names_are_well_formed(declared):
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert names[: len(ORDER)] == list(ORDER)


def test_a_run_leaves_git_status_unchanged(runs):
    before, _, _, after = runs
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


class Flaky(Workload):
    name = "flaky"

    def op(self, seed, tracer):
        if seed % 3 == 0:
            raise RuntimeError("injected")
        return seed


def test_failed_ops_are_counted_and_do_not_stop_the_window():
    m = Flaky(smoke=True).measure(itertools.count(1), 0.05, UNTRACED)
    assert m.attempted == len(m.results) + len(m.failures)
    # Seed 1 goes to the untimed warm-up op; the window tries 2, 3, ...
    attempted_seeds = range(2, m.attempted + 2)
    assert len(m.failures) == sum(1 for s in attempted_seeds if s % 3 == 0)
    assert all("injected" in f for f in m.failures)
    assert len(m.latencies_s) == len(m.results)


def test_failed_workers_are_counted_and_fail_the_run(monkeypatch, capsys):
    def broken(workload, mode, **kwargs):
        raise driver.WorkerError(f"{workload} {mode} worker exited 1")

    monkeypatch.setattr(driver, "_worker", broken)
    result = driver.run_workload("table1_row", seed=1, seconds=1.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == driver.SETUPS
    assert driver.run(
        ["table1_row"], seed=1, seconds=1.0, trace=False, smoke=False, out=None
    ) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == driver.SETUPS
