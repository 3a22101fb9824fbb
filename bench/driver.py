"""Runs workloads in fresh worker processes and reports their metrics.

Each worker gets an empty temporary ``REPRO_CACHE_DIR`` (and
``TMPDIR``) under ``.bench_out/`` in the checkout, so every set-up is
cold and nothing is written into the tree outside that ignored
directory.  ``REPRO_*`` variables of the caller's environment are
dropped: the benchmark measures the program's defaults.

An untraced run starts ``SETUPS`` workers; each times a cold set-up and
the last one also runs the measured window.  ``setup_s`` is their
median.  A traced run starts one worker.

Standard library only, so the driver starts fast and fails cleanly
where the program's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench.stats import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Stored default-seed estimates the statistical check compares against.
EXPECTED = Path(__file__).with_name("expected.json")

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Wall-clock budget of one workload, all its workers included.
BUDGET_S = 170.0

#: Seed used when none is given, and for the stored estimates.
DEFAULT_SEED = 1

#: Workload order of a full run (cheapest set-up first).
ORDER = ("service_mix", "mlmc_eps", "kle_wire_stream", "table1_row", "kle_large")

#: End-to-end metrics: unit and how the value is formed.
END_TO_END = {
    "setup_s": ("s", "median of the cold set-ups"),
    "op_p50_ms": ("ms", "median op latency"),
    "ops_per_s": ("1/s", "ops completed per second"),
    "peak_rss_mb": ("MB", "ru_maxrss of the measuring process"),
}

#: Per-layer metrics: unit.
PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.triangles": "count",
    "core.kle_solve_s": "s",
    "core.eigenpairs": "count",
    "core.r": "count",
    "circuit.load_s": "s",
    "circuit.gates": "count",
    "place.place_s": "s",
    "native.build_s": "s",
    "timing.engine_build_s": "s",
    "timing.compile_s": "s",
    "field.prepare_s": "s",
    "cache.misses": "count",
    "cache.store_s": "s",
    "field.generate_s": "s",
    "timing.sta_s": "s",
    "timing.gate_samples": "count",
    "timing.ns_per_gate_sample": "ns",
    "timing.native_share": "fraction",
    "timing.sta_thread_speedup_2": "x",
    "mem.op_peak_mb": "MB",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
    "trace.spans": "count",
}


class WorkerError(RuntimeError):
    """A worker exited non-zero, timed out or printed no report."""


def expected_key(workload: str, smoke: bool) -> str:
    """Key of a workload's stored estimates (smoke sizes differ)."""
    return f"{workload}@smoke" if smoke else workload


def default_seconds() -> float:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def _worker(
    workload: str,
    mode: str,
    *,
    seed: int,
    seconds: float,
    smoke: bool,
    deadline: float,
    trace_out: Optional[Path] = None,
) -> dict:
    """Run one worker in a fresh cache directory; return its report."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    env["TMPDIR"] = str(scratch / "tmp")
    (scratch / "tmp").mkdir()
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--mode", mode,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    # A session of its own, so a timeout also stops the compiler a worker
    # may have started.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} {mode} worker timed out") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerError(
            f"{workload} {mode} worker exited {process.returncode}: "
            f"{stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_workload(
    workload: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> dict:
    """One run of one workload: the result object of the last output line,
    plus details, sample counts and failure messages."""
    deadline = time.monotonic() + BUDGET_S
    trace_out = None
    if trace:
        modes = ["trace"]
        trace_out = OUT / "traces" / f"{workload}-seed{seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    else:
        modes = ["setup"] * (0 if smoke else SETUPS - 1) + ["measure"]
    reports: List[dict] = []
    failures: List[str] = []
    for mode in modes:
        try:
            reports.append(
                _worker(
                    workload, mode, seed=seed, seconds=seconds, smoke=smoke,
                    deadline=deadline, trace_out=trace_out,
                )
            )
        except WorkerError as exc:
            failures.append(str(exc))
    final = reports[-1] if reports and "metrics" in reports[-1] else {}
    failures += final.get("failures", [])
    attempted = final.get("attempted", 0) + len(modes) - len(reports)
    values = dict(final.get("metrics", {}))
    samples = dict(final.get("samples", {}))
    if not trace and reports:
        values["setup_s"] = median([r["setup_s"] for r in reports])
        samples["setup_s"] = len(reports)
    units = PER_LAYER if trace else {k: u for k, (u, _) in END_TO_END.items()}
    missing = sorted(set(units) - set(values))
    if final and missing:
        failures.append(f"metrics not produced: {', '.join(missing)}")
    return {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
        "samples": samples,
        "details": final.get("details", {}),
        "failures": failures,
        "trace_file": str(trace_out) if trace_out else None,
    }


def describe(workload: str, result: dict) -> List[str]:
    """Human-readable lines: every metric with unit and sample count."""
    lines = []
    for name, metric in result["metrics"].items():
        how = END_TO_END.get(name, (None, "per-layer"))[1]
        count = result["samples"].get(name)
        suffix = f"; n={count}" if count is not None else ""
        lines.append(
            f"{workload} {name} = {metric['value']:.6g} {metric['unit']} "
            f"({how}{suffix})"
        )
    for name, value in result["details"].items():
        lines.append(f"{workload} detail {name} = {value:.6g}")
    error_rate = result["failed"] / result["attempted"]
    lines.append(
        f"{workload} error_rate = {error_rate:.6g} "
        f"({result['failed']} of {result['attempted']} failed)"
    )
    lines += [f"{workload} FAILED: {message}" for message in result["failures"]]
    if result["trace_file"]:
        lines.append(f"{workload} trace written to {result['trace_file']}")
    return lines


def run(
    workloads: List[str],
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out: Optional[str],
) -> int:
    """Run workloads in turn; print metrics and one JSON result line."""
    results: Dict[str, dict] = {}
    for workload in workloads:
        result = run_workload(
            workload, seed=seed, seconds=seconds, trace=trace, smoke=smoke
        )
        results[workload] = result
        print("\n".join(describe(workload, result)), flush=True)
    if out:
        _append_run(out, seed, seconds, trace, smoke, results)
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(results) == 1:
        summary["metrics"] = next(iter(results.values()))["metrics"]
    else:
        summary["metrics"] = {w: r["metrics"] for w, r in results.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


def _append_run(
    path: str, seed: int, seconds: float, trace: bool, smoke: bool,
    results: Dict[str, dict],
) -> None:
    """Add one run to ``path``, the input format of ``compare``."""
    document = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(
        {
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "workloads": results,
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def calibrate(workloads: List[str], *, seconds: float, smoke: bool) -> int:
    """Store default-seed worst-delay estimates for the statistical check."""
    stored = {}
    if EXPECTED.exists():
        with open(EXPECTED, encoding="utf-8") as handle:
            stored = json.load(handle)
    for workload in workloads:
        report = _worker(
            workload, "calibrate", seed=DEFAULT_SEED, seconds=seconds,
            smoke=smoke, deadline=time.monotonic() + 30 * seconds + BUDGET_S,
        )
        if report["failures"]:
            print(f"{workload}: {report['failures']}", file=sys.stderr)
            return 1
        stored[expected_key(workload, smoke)] = report["expected"]
        print(f"{workload}: {json.dumps(report['expected'])}", flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(stored.items())), handle, indent=1)
        handle.write("\n")
    return 0
