"""Thread-scaling bench for the multithreaded native STA kernel.

Sweeps the sample-parallel ``sta_eval_gates_mt`` hot path over worker
counts (1, 2, 4) on the largest default Table 1 circuit under the repo's
noise discipline — warm-up run, repeated sweeps, median + IQR via
:func:`repro.utils.bench.timed_median` — and writes the results to
``BENCH_pr7.json`` (override with ``REPRO_THREAD_BENCH_JSON``).

Two gates, deliberately asymmetric in strictness:

- **bitwise determinism** is asserted *everywhere*, at every thread
  count, on every machine — it is the tentpole's correctness contract
  and has no hardware precondition;
- **scaling** (≥ 2× at 4 workers) is asserted only on hosts with at
  least 4 cores; below that the bench records the measured timings and
  skips the ratio check with the core count in the skip reason, because
  a 1-core container cannot falsify a parallel-speedup claim.
"""

import json
import os

import numpy as np
import pytest

from repro.circuit.benchmarks import get_spec
from repro.experiments.table1 import default_table1_circuits
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine
from repro.utils.bench import timed_median

_THREAD_SWEEP = (1, 2, 4)
_REPEATS = 5
_NUM_SAMPLES = 2000
_SCALING_MIN_CORES = 4
_SCALING_THREADS = 4
_SCALING_FACTOR = 2.0


def _largest_default_circuit() -> str:
    return max(
        default_table1_circuits(), key=lambda c: get_spec(c).num_gates
    )


@pytest.fixture(scope="module")
def thread_sweep(context):
    """Median-timed compiled sweeps at each worker count, plus results."""
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable (REPRO_NO_NATIVE or no cc)")
    circuit = _largest_default_circuit()
    netlist = context.circuit(circuit)
    placement = context.placement(circuit)
    engine = STAEngine(netlist, placement)
    rng = np.random.default_rng(2008)
    samples = {
        name: rng.standard_normal((_NUM_SAMPLES, netlist.num_gates)) * 0.1
        for name in STATISTICAL_PARAMETERS
    }
    # One small-N run per thread count absorbs kernel build and page
    # faults before anything is timed.
    warmup = {name: m[:8] for name, m in samples.items()}
    results = {}
    timings = {}
    for threads in _THREAD_SWEEP:
        engine.run(warmup, engine="compiled", native_threads=threads)

        def sweep(threads=threads):
            results[threads] = engine.run(
                samples, engine="compiled", native_threads=threads
            )

        timings[threads] = timed_median(sweep, repeats=_REPEATS, warmup=0)
    payload = {
        "bench": "native-threads",
        "circuit": circuit,
        "num_samples": _NUM_SAMPLES,
        "cores": os.cpu_count() or 1,
        "thread_backend": native.thread_backend(),
        "timings": {
            str(threads): stats.to_dict()
            for threads, stats in timings.items()
        },
        "speedup_vs_serial": {
            str(threads): round(
                timings[1].median / max(stats.median, 1e-12), 3
            )
            for threads, stats in timings.items()
        },
    }
    path = os.environ.get("REPRO_THREAD_BENCH_JSON", "BENCH_pr7.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return circuit, results, timings, payload


def test_thread_counts_are_bitwise_identical(thread_sweep, bench_record):
    """The correctness gate: no hardware precondition, never skipped."""
    circuit, results, _, payload = thread_sweep
    bench_record(
        circuit=circuit,
        num_samples=_NUM_SAMPLES,
        thread_backend=payload["thread_backend"],
        cores=payload["cores"],
        speedup_vs_serial=payload["speedup_vs_serial"],
    )
    base = results[1]
    for threads in _THREAD_SWEEP[1:]:
        run = results[threads]
        assert np.array_equal(base.worst_delay, run.worst_delay), (
            f"worst_delay diverged bitwise at {threads} threads"
        )
        for net, values in base.end_arrivals.items():
            assert np.array_equal(run.end_arrivals[net], values), (
                f"end arrival {net!r} diverged bitwise at {threads} threads"
            )


def test_scaling_at_four_threads(thread_sweep):
    """The perf gate: ≥ 2× at 4 workers, only where 4 cores exist."""
    circuit, _, timings, payload = thread_sweep
    cores = payload["cores"]
    if cores < _SCALING_MIN_CORES:
        pytest.skip(
            f"host has {cores} core(s) < {_SCALING_MIN_CORES}; "
            f"scaling gate needs real parallel hardware "
            f"(timings still recorded in BENCH_pr7.json)"
        )
    serial = timings[1].median
    threaded = timings[_SCALING_THREADS].median
    speedup = serial / max(threaded, 1e-12)
    assert speedup >= _SCALING_FACTOR, (
        f"{_SCALING_THREADS}-thread sweep only {speedup:.2f}x faster than "
        f"serial on {circuit} at N={_NUM_SAMPLES} "
        f"(serial median {serial:.3f}s ± IQR {timings[1].iqr:.3f}s, "
        f"threaded median {threaded:.3f}s ± IQR "
        f"{timings[_SCALING_THREADS].iqr:.3f}s)"
    )
