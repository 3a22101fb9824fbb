"""One benchmark process: a cold set-up, then optionally a measured window.

The driver starts each worker with an empty artifact cache directory, so
the set-up it times is the cold one.  Modes:

- ``setup``: time the set-up only;
- ``measure``: set up, run the workload for ``--seconds`` untraced,
  check outputs, report end-to-end metrics;
- ``trace``: set up traced, run half the window untraced and half
  traced, check outputs, report per-layer metrics and write the spans;
- ``calibrate``: measure with no checks and report the pooled
  worst-delay estimates that later runs are checked against.

The report is the last line of standard output, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils import cache_stats

from bench.driver import EXPECTED, expected_key
from bench.stats import Estimate, Moments, average, disagreements, median, pool
from bench.trace import Tracer, seconds_by_name, seconds_by_op, unaccounted_share
from bench.workloads import (
    UNTRACED,
    WORKLOADS,
    Measurement,
    Workload,
    op_seeds,
    probe_threads,
)

#: Samples per thread-scaling probe, and at smoke size.
PROBE_SAMPLES = 1000
PROBE_SAMPLES_SMOKE = 32

#: Spans every workload's set-up records; each is reported as ``<span>_s``.
SETUP_LAYERS = (
    "mesh.build",
    "core.kle_solve",
    "circuit.load",
    "place.place",
    "native.build",
    "timing.engine_build",
    "timing.compile",
    "field.prepare",
)


def pooled_estimates(
    m: Measurement, kurtosis: Dict[str, float]
) -> Dict[str, Estimate]:
    """Each worst-delay stream pooled over the window's ops.

    Plain Monte-Carlo streams are pooled exactly; their σ error uses the
    stream's kurtosis from ``kurtosis`` (3, the normal value, if absent).
    MLMC estimates carry their own errors and are averaged.
    """
    pooled: Dict[str, Estimate] = {}
    if not m.results:
        return pooled
    for stream in m.results[0].streams:
        parts = [r.streams[stream] for r in m.results]
        if isinstance(parts[0], Moments):
            pooled[stream] = Estimate.from_moments(
                pool(parts), kurtosis.get(stream, 3.0)
            )
        else:
            pooled[stream] = average(parts)
    return pooled


def op_failures(m: Measurement) -> List[str]:
    """Ops that raised, and ops whose own checks failed (one entry each)."""
    return m.failures + ["; ".join(r.problems) for r in m.results if r.problems]


def verify(
    workload: Workload, m: Measurement, expected: Optional[Dict[str, dict]]
) -> Tuple[List[str], Dict[str, Estimate]]:
    """Every failed op or check of a window, and its pooled estimates."""
    failures = op_failures(m) + workload.checks(m.results)
    if expected is None:
        failures.append(f"no stored estimates for {workload.name} in {EXPECTED.name}")
        return failures, pooled_estimates(m, {})
    kurtosis = {k: v["kurtosis"] for k, v in expected.items()}
    pooled = pooled_estimates(m, kurtosis)
    for stream, estimate in pooled.items():
        want = expected[stream]
        failures += disagreements(
            stream,
            estimate,
            Estimate(want["mean"], want["mean_se"], want["std"], want["std_se"]),
        )
    return failures, pooled


def load_expected(name: str, smoke: bool) -> Optional[Dict[str, dict]]:
    if not EXPECTED.exists():
        return None
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle).get(expected_key(name, smoke))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, args: argparse.Namespace, tracer: Tracer) -> dict:
    m = workload.measure(op_seeds(args.seed), args.seconds, UNTRACED)
    failures, pooled = verify(workload, m, load_expected(args.workload, args.smoke))
    metrics = {"ops_per_s": m.ops_per_s, "peak_rss_mb": peak_rss_mb()}
    if m.latencies_s:
        metrics["op_p50_ms"] = median(m.latencies_s) * 1e3
    return {
        "attempted": m.attempted,
        "failures": failures,
        "metrics": metrics,
        "samples": {"op_p50_ms": len(m.latencies_s), "ops_per_s": len(m.results)},
        "details": workload.details(m, pooled),
    }


def calibrate(workload: Workload, args: argparse.Namespace, tracer: Tracer) -> dict:
    m = workload.measure(op_seeds(args.seed), args.seconds, UNTRACED)
    kurtosis = {}
    for stream in m.results[0].streams:
        values = [r.kurtosis[stream] for r in m.results if stream in r.kurtosis]
        if values:
            kurtosis[stream] = median(values)
    expected = {
        stream: {
            "mean": e.mean,
            "mean_se": e.mean_se,
            "std": e.std,
            "std_se": e.std_se,
            "kurtosis": kurtosis.get(stream, 3.0),
            "ops": len(m.results),
        }
        for stream, e in pooled_estimates(m, kurtosis).items()
    }
    return {"attempted": m.attempted, "failures": m.failures, "expected": expected}


def layer_metrics(
    workload: Workload,
    tracer: Tracer,
    plain: Measurement,
    traced: Measurement,
    probe_samples: int,
    seed: int,
) -> Dict[str, float]:
    """Per-layer metrics of a traced run (see README for the layer map)."""
    spans = list(tracer.spans)
    totals = seconds_by_name(spans)
    layers = {f"{span}_s": totals[span] for span in SETUP_LAYERS}
    layers.update(workload.counts)
    caches = cache_stats().values()
    layers["cache.misses"] = sum(c["misses"] for c in caches)
    layers["cache.store_s"] = sum(c["store_seconds"] for c in caches)

    results = traced.results
    if workload.decomposed:
        per_op = seconds_by_op(spans).values()
        generate = median([op.get("field.generate", 0.0) for op in per_op])
        sta = median([op.get("timing.sta", 0.0) for op in per_op])
    else:
        generate = median([r.generate_s for r in results])
        sta = median([r.sta_s for r in results])
    gate_samples = median([r.gate_samples for r in results])
    layers["field.generate_s"] = generate
    layers["timing.sta_s"] = sta
    layers["timing.gate_samples"] = gate_samples
    layers["timing.ns_per_gate_sample"] = sta / gate_samples * 1e9
    layers["timing.native_share"] = sum(r.native for r in results) / len(results)
    layers["timing.sta_thread_speedup_2"] = probe_threads(
        workload.engine, workload.netlist.num_gates, probe_samples
    )
    tracemalloc.start()
    try:
        workload.memory_op(seed)
        layers["mem.op_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    layers["trace.overhead_pct"] = 100.0 * (
        median(traced.latencies_s) / median(plain.latencies_s) - 1.0
    )
    layers["trace.unaccounted_pct"] = 100.0 * unaccounted_share(spans)
    layers["trace.spans"] = len(spans)
    return layers


def trace(workload: Workload, args: argparse.Namespace, tracer: Tracer) -> dict:
    half = args.seconds / 2.0
    plain = workload.measure(op_seeds(args.seed), half, UNTRACED)
    traced = workload.measure(op_seeds(args.seed), half, tracer)
    expected = load_expected(args.workload, args.smoke)
    failures, pooled = verify(workload, traced, expected)
    failures += op_failures(plain)
    if (
        plain.results
        and traced.results
        and plain.results[0].fingerprint != traced.results[0].fingerprint
    ):
        failures.append("the traced op differs from the untraced op of its seed")
    probe = PROBE_SAMPLES_SMOKE if args.smoke else PROBE_SAMPLES
    layers = layer_metrics(workload, tracer, plain, traced, probe, args.seed)
    details = workload.details(traced, pooled)
    if args.trace_out:
        tracer.dump(
            args.trace_out,
            {
                "workload": args.workload,
                "seed": args.seed,
                "metrics": layers,
                "details": details,
                "failures": failures,
            },
        )
    return {
        "attempted": plain.attempted + traced.attempted,
        "failures": failures,
        "metrics": layers,
        "samples": {"trace.overhead_pct": len(traced.latencies_s)},
        "details": details,
    }


MODES = {"measure": measure, "calibrate": calibrate, "trace": trace}


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", *MODES])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    tracer = Tracer(enabled=args.mode == "trace")
    try:
        began = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.setup(tracer, os.environ["REPRO_CACHE_DIR"])
        report = {"setup_s": time.perf_counter() - began}
        if args.mode != "setup":
            report.update(MODES[args.mode](workload, args, tracer))
    finally:
        workload.close()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
