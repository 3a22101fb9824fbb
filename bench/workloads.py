"""The benchmark's five workloads.

Each workload builds its artifacts cold in :meth:`Workload.setup`, then
repeats one operation (an *op*).  Every call into the program goes
through a public function, wrapped in a span named after the layer it
enters, so a traced run splits the time by layer while an untraced run
executes the same calls.

Sizes are chosen so that three cold set-ups plus a measured window fit
in about 25 s of one 2-core machine: the benchmark is run over a hundred
times per comparison.  Smoke sizes run the same code paths in seconds.
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.circuit.benchmarks import load_circuit
from repro.circuit.netlist import Netlist
from repro.core.galerkin import solve_kle
from repro.core.kernel_fit import paper_experiment_kernel
from repro.core.kle import KLEResult
from repro.experiments import DIE_BOUNDS, PLACEMENT_SEED
from repro.mesh.refine import paper_mesh
from repro.mesh.structured import structured_rectangle_mesh
from repro.mlmc import MLMCEstimator, SurrogateKLEHierarchy
from repro.place.placer import Placement, place_netlist
from repro.service import (
    AnalysisRequest,
    QueueFullError,
    ResultStream,
    ServiceConfig,
    SSTAService,
)
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.ssta import MonteCarloSSTA, SSTARun
from repro.timing.sta import STAEngine, STAResult

from bench.stats import Estimate, Moments, median, percentile
from bench.trace import Tracer

#: KLE truncation order of every workload (the paper's r).
RANK = 25

#: Samples of the warm-up op that ends each set-up.
WARMUP_SAMPLES = 8

#: A tracer that records nothing, for untraced ops.
UNTRACED = Tracer(enabled=False)

Stream = Union[Moments, Estimate]


@dataclass
class OpResult:
    """What one op produced, for correctness checks and layer metrics.

    ``streams`` holds each worst-delay estimate the op produced (plain
    Monte-Carlo moments, or an MLMC estimate with its own errors);
    ``kurtosis`` the sample kurtosis of streams whose samples the op
    kept.  ``generate_s`` / ``sta_s`` are sample-generation and timing
    seconds as the program reports them.  ``fingerprint`` is compared
    exactly between two runs of one seed.  ``problems`` are failed
    per-op checks.
    """

    streams: Dict[str, Stream]
    kurtosis: Dict[str, float] = field(default_factory=dict)
    generate_s: float = 0.0
    sta_s: float = 0.0
    gate_samples: int = 0
    native: bool = False
    fingerprint: object = None
    detail: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class Measurement:
    """Outcome of one measured window."""

    latencies_s: List[float] = field(default_factory=list)
    ops_per_s: float = 0.0
    results: List[OpResult] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    detail: Dict[str, float] = field(default_factory=dict)


def op_seeds(seed: int) -> Iterator[int]:
    """The per-op seed stream a workload seed expands to."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**62))


def sta_stream(sta: object) -> Tuple[Moments, Optional[float], object]:
    """Moments, sample kurtosis and fingerprint of a worst-delay result."""
    if isinstance(sta, STAResult):
        worst = sta.worst_delay
        mean = float(np.mean(worst))
        dev = worst - mean
        m2 = float(np.sum(dev * dev))
        kurt = float(np.mean(dev**4) / (m2 / worst.size) ** 2)
        return Moments(worst.size, mean, m2), kurt, worst.tobytes()
    moments = Moments.from_std(
        sta.num_samples, sta.mean_worst_delay(), sta.std_worst_delay()
    )
    quantiles = tuple(sta.quantile_worst_delay(q) for q in sta.tracked_quantiles)
    return moments, None, (moments.mean, moments.std, quantiles)


class Workload:
    """One workload: cold set-up, then a repeated op."""

    name = ""
    why = ""
    #: Whether traced ops split into ``field.generate`` and ``timing.sta``
    #: spans; otherwise those layers are private to the op and their
    #: times come from the program's own report.
    decomposed = False
    #: Sizes of a normal run and of a smoke run.
    full: object = None
    small: object = None

    def __init__(self, smoke: bool) -> None:
        self.sizes = self.small if smoke else self.full
        #: Layer counts reported by a traced run (``mesh.triangles``, …).
        self.counts: Dict[str, float] = {}
        self.engine: Optional[STAEngine] = None
        self.netlist: Optional[Netlist] = None

    def setup(self, tracer: Tracer, cache_dir: str) -> None:
        raise NotImplementedError

    def op(self, seed: int, tracer: Tracer) -> OpResult:
        raise NotImplementedError

    def memory_op(self, seed: int) -> None:
        """One untraced op, run under the allocation tracker."""
        self.op(seed, UNTRACED)

    def measure(
        self, seeds: Iterator[int], seconds: float, tracer: Tracer
    ) -> Measurement:
        """Closed loop with one caller for ``seconds`` (at least one op)."""
        m = Measurement()
        # One untimed full-size op first: first-touch page faults and
        # thread-pool start-up belong to no op.
        self.op(next(seeds), UNTRACED)
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            seed = next(seeds)
            m.attempted += 1
            began = time.perf_counter()
            try:
                with tracer.span("bench.op", op=m.attempted):
                    result = self.op(seed, tracer)
            except Exception as exc:  # an op failure is counted, not fatal
                m.failures.append(f"op with seed {seed}: {exc!r}")
            else:
                m.latencies_s.append(time.perf_counter() - began)
                m.results.append(result)
            if time.perf_counter() >= deadline:
                break
        m.ops_per_s = len(m.results) / (time.perf_counter() - start)
        return m

    def checks(self, results: List[OpResult]) -> List[str]:
        """Workload-specific correctness checks run after the window."""
        return []

    def details(self, m: Measurement, pooled: Dict[str, Estimate]) -> Dict[str, float]:
        """Workload outputs reported beside the metrics (not gated)."""
        return dict(m.detail)

    def close(self) -> None:
        """Release what the set-up started."""


def build_field(
    tracer: Tracer, cache_dir: str, cells: Optional[int], eigenpairs: int
) -> Tuple[KLEResult, object]:
    """Mesh plus KLE eigensolve of the paper's kernel (disk cache cold).

    ``cells=None`` builds the paper's mesh; otherwise a structured mesh of
    ``cells × cells`` squares, two triangles each.
    """
    with tracer.span("mesh.build"):
        if cells is None:
            mesh = paper_mesh()
        else:
            mesh = structured_rectangle_mesh(*DIE_BOUNDS, cells, cells)
    kernel = paper_experiment_kernel()
    with tracer.span("core.kle_solve"):
        kle = solve_kle(kernel, mesh, num_eigenpairs=eigenpairs, cache=cache_dir)
    return kle, kernel


def build_circuit(tracer: Tracer, circuit: str) -> Tuple[Netlist, Placement]:
    """Netlist, placement and the native kernel build."""
    with tracer.span("circuit.load"):
        netlist = load_circuit(circuit)
    with tracer.span("place.place"):
        placement = place_netlist(netlist, DIE_BOUNDS, seed=PLACEMENT_SEED)
    with tracer.span("native.build"):
        native.load_kernel()
    return netlist, placement


@dataclass(frozen=True)
class FlowSizes:
    circuit: str
    num_samples: int
    mesh_cells: Optional[int] = 16
    eigenpairs: int = 100
    chunk_size: Optional[int] = None


class FlowWorkload(Workload):
    """``MonteCarloSSTA`` flows on one placed circuit, closed loop."""

    flows: Tuple[str, ...] = ("kle",)
    quantiles: Tuple[float, ...] = ()
    wire_sigma: Optional[Dict[str, float]] = None

    def setup(self, tracer: Tracer, cache_dir: str) -> None:
        kle, kernel = build_field(
            tracer, cache_dir, self.sizes.mesh_cells, self.sizes.eigenpairs
        )
        netlist, placement = build_circuit(tracer, self.sizes.circuit)
        with tracer.span("timing.engine_build"):
            self.ssta = MonteCarloSSTA(
                netlist, placement, kernel, kle, r=RANK, wire_sigma=self.wire_sigma
            )
        with tracer.span("timing.compile"):
            self.ssta.engine.program  # noqa: B018 — builds and caches
        with tracer.span("field.prepare"):
            self.ssta.kle_generator.prepare(self.ssta.gate_locations)
            if "reference" in self.flows:
                self.ssta.reference_generator.prepare(self.ssta.gate_locations)
        with tracer.span("ssta.warmup"):
            for flow in self.flows:
                self._run(flow, WARMUP_SAMPLES, 0)
        self.engine, self.netlist = self.ssta.engine, netlist
        self.counts = {
            "mesh.triangles": kle.mesh.num_triangles,
            "core.eigenpairs": kle.num_eigenpairs,
            "core.r": self.ssta.r,
            "circuit.gates": netlist.num_gates,
        }

    def _run(self, flow: str, num_samples: int, seed: int) -> SSTARun:
        run = self.ssta.run_reference if flow == "reference" else self.ssta.run_kle
        return run(
            num_samples,
            seed=seed,
            chunk_size=self.sizes.chunk_size,
            quantiles=self.quantiles,
        )

    def _decomposed(
        self, flow: str, num_samples: int, seed: int, tracer: Tracer
    ) -> STAResult:
        """``run_reference``/``run_kle`` split into its two public calls."""
        generator = (
            self.ssta.reference_generator
            if flow == "reference"
            else self.ssta.kle_generator
        )
        with tracer.span("field.generate", flow=flow):
            generated = generator.generate(
                self.ssta.gate_locations, num_samples, seed=seed
            )
        with tracer.span("timing.sta", flow=flow):
            return self.ssta.engine.run(generated.samples)

    def op(self, seed: int, tracer: Tracer) -> OpResult:
        result = OpResult(streams={})
        fingerprints = []
        for i, flow in enumerate(self.flows):
            began = time.perf_counter()
            if tracer.enabled and self.decomposed:
                sta = self._decomposed(flow, self.sizes.num_samples, seed + i, tracer)
            else:
                with tracer.span(f"ssta.run_{flow}"):
                    run = self._run(flow, self.sizes.num_samples, seed + i)
                sta = run.sta
                result.generate_s += run.sample_seconds
                result.sta_s += run.timer_seconds
            result.detail[f"{flow}_flow_s"] = time.perf_counter() - began
            moments, kurt, fingerprint = sta_stream(sta)
            result.streams[flow] = moments
            if kurt is not None:
                result.kurtosis[flow] = kurt
            fingerprints.append(fingerprint)
        result.fingerprint = tuple(fingerprints)
        result.native = bool(self.ssta.engine.program.last_run_native)
        result.gate_samples = (
            len(self.flows) * self.sizes.num_samples * self.ssta.netlist.num_gates
        )
        return result

    def checks(self, results: List[OpResult]) -> List[str]:
        """The decomposed flows equal the public ones bitwise."""
        if not self.decomposed:
            return []
        failures = []
        for flow in self.flows:
            public = self._run(flow, 64, 7).sta
            split = self._decomposed(flow, 64, 7, UNTRACED)
            if not np.array_equal(public.worst_delay, split.worst_delay):
                failures.append(
                    f"{flow}: generate + engine.run differs from run_{flow}"
                )
        return failures

    def details(self, m: Measurement, pooled: Dict[str, Estimate]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for flow in self.flows:
            times = [r.detail[f"{flow}_flow_s"] for r in m.results]
            if times:
                out[f"{flow}_flow_s"] = median(times)
        return out


class Table1Row(FlowWorkload):
    name = "table1_row"
    why = (
        "The paper's experiment: one Table-1 row, Alg. 1 Cholesky and Alg. 2 "
        "KLE flows on one circuit; reference sampling dominates, so KLE-path "
        "changes should leave it flat"
    )
    decomposed = True
    flows = ("reference", "kle")
    full = FlowSizes("c5315", 1000, mesh_cells=None, eigenpairs=200)
    small = FlowSizes("c880", 64, mesh_cells=8, eigenpairs=40)

    def details(self, m: Measurement, pooled: Dict[str, Estimate]) -> Dict[str, float]:
        out = super().details(m, pooled)
        if "reference_flow_s" in out:
            out["speedup"] = out["reference_flow_s"] / out["kle_flow_s"]
        if pooled:
            ref, kle = pooled["reference"], pooled["kle"]
            out["e_mu_pct"] = 100.0 * abs(kle.mean - ref.mean) / abs(ref.mean)
            out["e_sigma_pct"] = 100.0 * abs(kle.std - ref.std) / abs(ref.std)
        return out


class KLELarge(FlowWorkload):
    name = "kle_large"
    why = (
        "Alg. 2 alone on a large sequential circuit: xi draw, reconstruction, "
        "gather, u projection and the native kernel are the whole op and set "
        "peak memory"
    )
    decomposed = True
    full = FlowSizes("s9234", 2000)
    small = FlowSizes("s5378", 64, mesh_cells=8, eigenpairs=40)


class KLEWireStream(FlowWorkload):
    name = "kle_wire_stream"
    why = (
        "The same field and timing layers reached another way: wire variation, "
        "per-chunk generation and moment merging on the numpy block executor, "
        "not the native one"
    )
    quantiles = (0.95,)
    wire_sigma = {"R": 0.10, "C": 0.08}
    full = FlowSizes("c3540", 1000, chunk_size=250)
    small = FlowSizes("c880", 96, mesh_cells=8, eigenpairs=40, chunk_size=32)


@dataclass(frozen=True)
class MLMCSizes:
    circuit: str
    eps: float
    initial_samples: int
    mesh_cells: int = 16
    eigenpairs: int = 100


class MLMCEps(Workload):
    name = "mlmc_eps"
    why = (
        "Adaptive surrogate MLMC to a fixed tolerance: level 0 bypasses gather "
        "and kernel, level 1 runs full STA, and the Giles allocation weighs both"
    )
    full = MLMCSizes("c1908", 2.0, 2048)
    small = MLMCSizes("c880", 12.0, 64, mesh_cells=8, eigenpairs=40)

    def setup(self, tracer: Tracer, cache_dir: str) -> None:
        kle, _ = build_field(
            tracer, cache_dir, self.sizes.mesh_cells, self.sizes.eigenpairs
        )
        netlist, placement = build_circuit(tracer, self.sizes.circuit)
        with tracer.span("field.prepare"):
            kle.locator  # noqa: B018 — builds the point-location index
        with tracer.span("timing.engine_build"):
            self.estimator = MLMCEstimator(
                netlist, placement, SurrogateKLEHierarchy(kle, r=RANK)
            )
        with tracer.span("timing.compile"):
            self.estimator.engine.program  # noqa: B018
        with tracer.span("mlmc.warmup"):
            # Builds the level-0 surrogate, so ops time sampling only.
            self.estimator.run(n_samples=[WARMUP_SAMPLES, WARMUP_SAMPLES], seed=0)
        self.surrogate_build_s = self.estimator.setup_seconds
        self.engine, self.netlist = self.estimator.engine, netlist
        self.counts = {
            "mesh.triangles": kle.mesh.num_triangles,
            "core.eigenpairs": kle.num_eigenpairs,
            "core.r": RANK,
            "circuit.gates": netlist.num_gates,
        }

    def op(self, seed: int, tracer: Tracer) -> OpResult:
        with tracer.span("mlmc.run"):
            run = self.estimator.run(
                eps=self.sizes.eps,
                seed=seed,
                initial_samples=self.sizes.initial_samples,
            )
        sta_levels = [s for s in run.levels if s.timer == "sta"]
        l0, l1 = run.levels
        result = OpResult(
            streams={
                "mlmc": Estimate(run.mean, run.estimator_sem, run.std, run.sigma_sem)
            },
            generate_s=sum(s.generate_seconds for s in run.levels),
            sta_s=sum(s.evaluate_seconds for s in sta_levels),
            gate_samples=sum(s.num_samples for s in sta_levels)
            * self.netlist.num_gates,
            native=bool(self.estimator.engine.program.last_run_native),
            # No fingerprint: the allocation follows measured per-level
            # costs, so one seed need not give the same samples twice.
            detail={
                "l0_samples": l0.num_samples,
                "l1_samples": l1.num_samples,
                "l0_cost_us": l0.cost_per_sample * 1e6,
                "l1_cost_us": l1.cost_per_sample * 1e6,
                "eps_overshoot": self.sizes.eps**2 / run.achieved_variance,
                "consistency_z": run.consistency.max_z,
            },
        )
        if not run.target_met:
            result.problems.append(
                f"MLMC missed eps={self.sizes.eps}: variance "
                f"{run.achieved_variance:.4g} > {self.sizes.eps ** 2:.4g}"
            )
        if not run.consistency.passed:
            result.problems.append(
                f"MLMC consistency check failed: max z {run.consistency.max_z:.2f}"
            )
        return result

    def details(self, m: Measurement, pooled: Dict[str, Estimate]) -> Dict[str, float]:
        out = {"surrogate_build_s": self.surrogate_build_s}
        for key in ("l0_samples", "l1_samples", "l0_cost_us", "l1_cost_us",
                    "eps_overshoot", "consistency_z"):
            values = [r.detail[key] for r in m.results]
            if values:
                out[key] = median(values)
        return out


@dataclass(frozen=True)
class ServiceSizes:
    circuit: str
    one_shot_samples: int
    chunked_samples: int
    chunk_size: int
    light_rps: float
    busy_rps: float


@dataclass
class _Request:
    """Client-side record of one service request."""

    index: int
    request: AnalysisRequest
    due_ns: int
    sent_ns: int = 0
    admitted_ns: int = 0
    done_ns: int = 0
    stream: Optional[ResultStream] = None
    error: Optional[str] = None


#: Service phases: share of the window, and the open-loop rate attribute
#: or the closed loop's requests in flight (8 = ``max_batch_requests``).
_PHASES = (
    ("sequential", 0.25, 1),
    ("light", 0.20, "light_rps"),
    ("busy", 0.25, "busy_rps"),
    ("capacity", 0.30, 8),
)

#: Poll period of the collector, and how long a phase may take to drain.
_POLL_S = 0.0005
_DRAIN_S = 60.0

#: Requests re-run serially to check the service's determinism contract.
_BITWISE_SAMPLE = 8


class ServiceMix(Workload):
    name = "service_mix"
    why = (
        "A warm SSTA service: sequential requests, open-loop Poisson load at "
        "two rates and a closed-loop capacity phase; per-request admission, "
        "batching and streaming dominate"
    )
    # Frozen open-loop rates, about 15% and 35% of the capacity measured
    # when the benchmark was defined.  Their latencies are reported, not
    # gated: at a fixed rate latency grows without bound as host speed,
    # and so capacity, drifts down (see README).
    full = ServiceSizes("c880", 128, 256, 64, light_rps=40.0, busy_rps=90.0)
    small = ServiceSizes("c880", 32, 64, 16, light_rps=20.0, busy_rps=40.0)

    def __init__(self, smoke: bool) -> None:
        super().__init__(smoke)
        self.service: Optional[SSTAService] = None

    def setup(self, tracer: Tracer, cache_dir: str) -> None:
        circuit = self.sizes.circuit
        self.service = SSTAService(ServiceConfig(cache_directory=cache_dir)).start()
        registry = self.service.registry
        with tracer.span("mesh.build"):
            registry.mesh()
        with tracer.span("core.kle_solve"):
            kle = registry.kle("gaussian")
        with tracer.span("circuit.load"):
            self.netlist = registry.netlist(circuit)
        with tracer.span("place.place"):
            registry.placement(circuit)
        with tracer.span("native.build"):
            native.load_kernel()
        with tracer.span("timing.engine_build"):
            self.harness = registry.harness(circuit, "gaussian", None)
        self.engine = self.harness.engine
        with tracer.span("timing.compile"):
            self.engine.program  # noqa: B018
        with tracer.span("field.prepare"):
            # Prepares both generators; every other artifact is resident.
            self.service.warm_up(circuit)
        with tracer.span("service.warmup"):
            self._request(0, AnalysisRequest(circuit, num_samples=WARMUP_SAMPLES, seed=0))
        self.counts = {
            "mesh.triangles": kle.mesh.num_triangles,
            "core.eigenpairs": kle.num_eigenpairs,
            "core.r": self.harness.r,
            "circuit.gates": self.netlist.num_gates,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def _make(self, index: int, seed: int) -> AnalysisRequest:
        """Three requests in four are one-shot; every fourth is chunked."""
        s = self.sizes
        if index % 4 == 3:
            return AnalysisRequest(
                s.circuit,
                num_samples=s.chunked_samples,
                seed=seed,
                chunk_size=s.chunk_size,
                quantiles=(0.95,),
            )
        return AnalysisRequest(s.circuit, num_samples=s.one_shot_samples, seed=seed)

    def _request(self, index: int, request: AnalysisRequest) -> OpResult:
        result = self.service.submit(request).result(timeout_s=_DRAIN_S)
        return self._to_op(_Request(index, request, 0), result)

    def memory_op(self, seed: int) -> None:
        self._request(0, self._make(0, seed))

    def _to_op(self, record: _Request, result: object) -> OpResult:
        if not result.ok:
            raise RuntimeError(f"request {record.index}: {result.status} {result.error}")
        moments, kurt, fingerprint = sta_stream(result.sta)
        op = OpResult(
            streams={"kle": moments},
            generate_s=result.sample_seconds,
            sta_s=result.timer_seconds,
            gate_samples=record.request.num_samples * self.netlist.num_gates,
            native=bool(self.engine.program.last_run_native),
            fingerprint=fingerprint,
            detail={
                "wait_ms": result.wait_seconds * 1e3,
                "batch_size": result.batch_size,
                "admit_ms": (record.admitted_ns - record.sent_ns) * 1e-6,
            },
        )
        if kurt is not None:
            op.kurtosis["kle"] = kurt
        return op

    # -- load generation -------------------------------------------------
    def _submit(self, record: _Request) -> None:
        record.sent_ns = time.monotonic_ns()
        try:
            record.stream = self.service.submit(record.request)
        except QueueFullError as exc:
            record.error = f"refused: {exc}"
        record.admitted_ns = time.monotonic_ns()

    def _open_loop(
        self, rate: float, duration: float, seeds: Iterator[int],
        rng: np.random.Generator, first: int,
    ) -> List[_Request]:
        """Poisson arrivals at ``rate``: one submitting and one collecting thread."""
        offsets = []
        t = float(rng.exponential(1.0 / rate))
        while t < duration:
            offsets.append(t)
            t += float(rng.exponential(1.0 / rate))
        submitted: "queue.SimpleQueue[Optional[_Request]]" = queue.SimpleQueue()
        collector = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._collect, submitted),
            name="bench-collector",
        )
        collector.start()
        records = []
        t0 = time.monotonic_ns()
        try:
            for k, offset in enumerate(offsets):
                due = t0 + int(offset * 1e9)
                delay = (due - time.monotonic_ns()) * 1e-9
                if delay > 0:
                    time.sleep(delay)
                index = first + k
                record = _Request(index, self._make(index, next(seeds)), due)
                self._submit(record)
                records.append(record)
                submitted.put(record)
        finally:
            submitted.put(None)
            collector.join(timeout=_DRAIN_S + duration)
        if collector.is_alive():
            raise RuntimeError("collector thread did not finish")
        return records

    def _collect(self, submitted: "queue.SimpleQueue[Optional[_Request]]") -> None:
        """Poll in-flight streams at ``_POLL_S`` and stamp completions."""
        inflight: List[_Request] = []
        closing = False
        deadline: Optional[float] = None
        while True:
            try:
                while True:
                    item = submitted.get_nowait()
                    if item is None:
                        closing = True
                        deadline = time.monotonic() + _DRAIN_S
                    elif item.stream is not None:
                        inflight.append(item)
            except queue.Empty:
                pass
            now = time.monotonic_ns()
            still = []
            for record in inflight:
                if record.stream.done():
                    record.done_ns = now
                else:
                    still.append(record)
            inflight = still
            if closing and (not inflight or time.monotonic() > deadline):
                for record in inflight:
                    record.stream.cancel("benchmark drain timeout")
                    record.error = "timed out"
                return
            time.sleep(_POLL_S)

    def _closed_loop(
        self, duration: float, seeds: Iterator[int], first: int, outstanding: int
    ) -> Tuple[List[_Request], int]:
        """``outstanding`` requests in flight; returns records and completions."""
        records: List[_Request] = []
        inflight: List[_Request] = []
        completed = 0
        start = time.monotonic_ns()
        end = start + int(duration * 1e9)
        drain_end = end + int(_DRAIN_S * 1e9)
        while True:
            now = time.monotonic_ns()
            if now < end:
                while len(inflight) < outstanding:
                    index = first + len(records)
                    record = _Request(index, self._make(index, next(seeds)), now)
                    self._submit(record)
                    records.append(record)
                    if record.stream is not None:
                        inflight.append(record)
            still = []
            for record in inflight:
                if record.stream.done():
                    record.done_ns = time.monotonic_ns()
                    if record.done_ns <= end:
                        completed += 1
                else:
                    still.append(record)
            inflight = still
            if now >= end and not inflight:
                break
            if now >= drain_end:
                for record in inflight:
                    record.stream.cancel("benchmark drain timeout")
                    record.error = "timed out"
                break
            time.sleep(_POLL_S)
        return records, completed

    def measure(
        self, seeds: Iterator[int], seconds: float, tracer: Tracer
    ) -> Measurement:
        m = Measurement()
        rng = np.random.default_rng(next(seeds))
        # Untimed first (see Workload.measure): both request kinds, then
        # the largest sweeps (full batches of one-shot requests) on every
        # worker at once, so peak memory is reached before the window.
        config = self.service.config
        burst = config.max_batch_requests * config.num_workers
        for kinds in (range(4), [0] * burst):
            for stream in [
                self.service.submit(self._make(i, next(seeds))) for i in kinds
            ]:
                stream.result(timeout_s=_DRAIN_S)
        phases: Dict[str, List[_Request]] = {}
        completed_rps: Dict[str, float] = {}
        for phase, share, load in _PHASES:
            duration = seconds * share
            first = m.attempted
            if isinstance(load, int):
                records, completed = self._closed_loop(duration, seeds, first, load)
                completed_rps[phase] = completed / duration
            else:
                rate = getattr(self.sizes, load)
                records = self._open_loop(rate, duration, seeds, rng, first)
            phases[phase] = records
            m.attempted += len(records)
            for record in records:
                if record.error is not None:
                    m.failures.append(f"{phase} request {record.index}: {record.error}")
                    continue
                try:
                    m.results.append(
                        self._to_op(record, record.stream.result(timeout_s=0))
                    )
                except RuntimeError as exc:
                    m.failures.append(f"{phase}: {exc}")
                    continue
                self._trace(tracer, record, phase)
        latency = {
            phase: [
                (r.done_ns - r.due_ns) * 1e-9
                for r in records
                if r.error is None and r.done_ns
            ]
            for phase, records in phases.items()
        }
        m.latencies_s = latency["sequential"]
        m.ops_per_s = completed_rps["capacity"]
        late = [
            (r.sent_ns - r.due_ns) * 1e-6
            for phase in ("light", "busy")
            for r in phases[phase]
        ]
        m.detail = {
            "capacity_rps": completed_rps["capacity"],
            "light_rps": self.sizes.light_rps,
            "busy_rps": self.sizes.busy_rps,
        }
        for phase, tail in (("sequential", 90), ("light", 90), ("busy", 95)):
            for q in (50, tail) if latency[phase] else ():
                m.detail[f"{phase}_p{q}_ms"] = percentile(latency[phase], q) * 1e3
        if late:
            m.detail["late_p99_ms"] = percentile(late, 99)
        self._phases = phases
        return m

    def _trace(self, tracer: Tracer, record: _Request, phase: str) -> None:
        """Spans of one request: due → done, split at the submit call."""
        if not tracer.enabled:
            return
        op_span = tracer.new_id()
        op = record.index + 1
        tracer.record("service.submit", record.sent_ns, record.admitted_ns,
                      parent=op_span, op=op)
        tracer.record("service.request", record.admitted_ns, record.done_ns,
                      parent=op_span, op=op)
        tracer.record("bench.op", record.due_ns, record.done_ns,
                      span_id=op_span, op=op, phase=phase)

    def checks(self, results: List[OpResult]) -> List[str]:
        """Sampled requests equal serial ``run_kle`` runs bitwise."""
        done = [
            r for r in self._phases["busy"] if r.error is None and r.done_ns
        ]
        picks = np.random.default_rng(len(done)).permutation(len(done))
        failures = []
        for k in picks[:_BITWISE_SAMPLE]:
            record = done[int(k)]
            request = record.request
            serial = self.harness.run_kle(
                request.num_samples,
                seed=request.seed,
                chunk_size=request.chunk_size,
                quantiles=request.quantiles,
            )
            served = record.stream.result(timeout_s=0)
            if sta_stream(serial.sta)[2] != sta_stream(served.sta)[2]:
                failures.append(
                    f"request {record.index} differs from a serial run_kle"
                )
        return failures

    def details(self, m: Measurement, pooled: Dict[str, Estimate]) -> Dict[str, float]:
        out = dict(m.detail)
        out["wait_p50_ms"] = median([r.detail["wait_ms"] for r in m.results])
        out["admit_p50_ms"] = median([r.detail["admit_ms"] for r in m.results])
        out["batch_size_mean"] = float(
            np.mean([r.detail["batch_size"] for r in m.results])
        )
        out["sample_p50_ms"] = median([r.generate_s for r in m.results]) * 1e3
        out["sweep_p50_ms"] = median([r.sta_s for r in m.results]) * 1e3
        stats = self.service.stats()
        out["resident_bytes"] = stats["resident_bytes"]
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (Table1Row, KLELarge, KLEWireStream, ServiceMix, MLMCEps)
}


def probe_threads(engine: STAEngine, num_gates: int, num_samples: int) -> float:
    """STA time at 1 kernel thread over time at 2, same samples (median of 3)."""
    rng = np.random.default_rng(0)
    samples = {
        p: rng.standard_normal((num_samples, num_gates))
        for p in STATISTICAL_PARAMETERS
    }
    medians = []
    for threads in (1, 2):
        times = []
        for _ in range(3):
            began = time.perf_counter()
            engine.run(samples, native_threads=threads)
            times.append(time.perf_counter() - began)
        medians.append(median(times))
    return medians[0] / medians[1]
