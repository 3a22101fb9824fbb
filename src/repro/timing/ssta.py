"""Monte-Carlo SSTA: reference (Algorithm 1) vs covariance-kernel
(Algorithm 2) flows, and their Table 1 comparison.

The experiment design follows the paper's §5.1 exactly: both flows run the
*same* core STA engine on the same placed circuit with the same number of
MC samples; the only difference is how the per-gate parameter samples are
generated — full ``N_g``-dimensional Cholesky sampling versus the
r-dimensional KLE reconstruction.  Reported quantities per circuit:

- ``e_mu``   — % mismatch of the worst-delay mean,
- ``e_sigma`` — % mismatch of the worst-delay standard deviation,
- ``speedup`` — reference wall-clock / KLE wall-clock (sample generation
  plus timing), the paper's final column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.netlist import Netlist
from repro.core.kernels import CovarianceKernel
from repro.core.kle import KLEResult
from repro.field.sampling import (
    CholeskySampleGenerator,
    KLESampleGenerator,
)
from repro.place.placer import Placement
from repro.timing.library import STATISTICAL_PARAMETERS, CellLibrary
from repro.timing.sta import STAEngine, STAResult
from repro.utils.rng import SeedLike, as_generator
from repro.utils.streaming import P2Quantile

#: Either flavour of correlated-field sample generator the flow accepts.
SampleGenerator = Union[CholeskySampleGenerator, KLESampleGenerator]


class StreamingSTAResult:
    """Moment-only STA result accumulated across streamed sample chunks.

    Chunked SSTA runs (``chunk_size=``) never hold all ``N`` samples, so
    instead of per-sample arrays this accumulates running first/second
    moments — the worst-delay mean/σ and the per-end-point mean/σ that
    :meth:`MonteCarloSSTA.compare` and the Fig. 6 metric consume.  Chunk
    merging uses the pairwise (Chan et al.) update, which is numerically
    stable regardless of chunk count; ``std`` matches :func:`numpy.std`
    (``ddof=0``) up to round-off.

    Duck-types the :class:`~repro.timing.sta.STAResult` summary methods
    (``mean_worst_delay`` / ``std_worst_delay`` / ``output_sigma`` /
    ``output_mean``); per-sample arrays (``worst_delay``,
    ``end_arrivals``) are intentionally absent.

    ``quantiles`` optionally attaches a streaming P² estimator
    (:class:`~repro.utils.streaming.P2Quantile`) per requested quantile, so
    chunked/MLMC runs can report e.g. the 95th-percentile delay without
    retaining samples; read it back with :meth:`quantile_worst_delay`.
    """

    def __init__(self, quantiles: Sequence[float] = ()) -> None:
        self.num_samples = 0
        self._worst_mean = 0.0
        self._worst_m2 = 0.0
        self._end_names: Optional[Tuple[str, ...]] = None
        self._end_mean: Optional[np.ndarray] = None
        self._end_m2: Optional[np.ndarray] = None
        self._quantiles: Dict[float, P2Quantile] = {
            float(q): P2Quantile(float(q)) for q in quantiles
        }

    @property
    def tracked_quantiles(self) -> Tuple[float, ...]:
        """The quantile levels this result tracks (constructor order)."""
        return tuple(self._quantiles)

    def quantile_worst_delay(self, q: float) -> float:
        """Streaming P² estimate of the worst-delay ``q``-quantile (ps).

        ``q`` must be one of the levels passed at construction; unlike the
        exact :meth:`STAResult.quantile_worst_delay` this carries the P²
        approximation error (vanishing as the stream grows).
        """
        try:
            return self._quantiles[float(q)].value()
        except KeyError:
            raise KeyError(
                f"quantile {q} not tracked; requested at construction: "
                f"{sorted(self._quantiles)}"
            ) from None

    def update(self, chunk: STAResult) -> None:
        """Merge one chunk's :class:`STAResult` into the running moments.

        A zero-sample chunk is a no-op: cancelled or short-circuited
        streams (the service layer emits these when a request is torn
        down mid-sweep) must neither poison the moments with NaNs nor
        divide by a zero combined count.
        """
        n_b = chunk.num_samples
        if n_b == 0:
            return
        names = tuple(chunk.end_arrivals)
        if self._end_names is None:
            self._end_names = names
            self._end_mean = np.zeros(len(names))
            self._end_m2 = np.zeros(len(names))
        elif names != self._end_names:
            raise ValueError("chunk end points changed between chunks")
        n_a = self.num_samples
        n = n_a + n_b

        mean_b = float(np.mean(chunk.worst_delay))
        m2_b = float(np.sum((chunk.worst_delay - mean_b) ** 2))
        delta = mean_b - self._worst_mean
        self._worst_mean += delta * n_b / n
        self._worst_m2 += m2_b + delta * delta * n_a * n_b / n

        ends = np.stack([chunk.end_arrivals[name] for name in names])
        mean_b_v = ends.mean(axis=1)
        m2_b_v = np.sum((ends - mean_b_v[:, None]) ** 2, axis=1)
        delta_v = mean_b_v - self._end_mean
        self._end_mean += delta_v * (n_b / n)
        self._end_m2 += m2_b_v + delta_v * delta_v * (n_a * n_b / n)

        for estimator in self._quantiles.values():
            estimator.update(chunk.worst_delay)

        self.num_samples = n

    def mean_worst_delay(self) -> float:
        """Running mean of the worst (chip-level) delay."""
        return self._worst_mean

    def std_worst_delay(self) -> float:
        """Running population std (ddof=0, matching ``np.std``)."""
        if self.num_samples == 0:
            return 0.0
        return float(np.sqrt(self._worst_m2 / self.num_samples))

    def output_mean(self) -> Dict[str, float]:
        """Per-end-point running mean arrival, keyed by net name."""
        if self._end_names is None:
            return {}
        return dict(zip(self._end_names, map(float, self._end_mean)))

    def output_sigma(self) -> Dict[str, float]:
        """Per-end-point running std (ddof=0), keyed by net name."""
        if self._end_names is None:
            return {}
        sigma = np.sqrt(self._end_m2 / max(self.num_samples, 1))
        return dict(zip(self._end_names, map(float, sigma)))


class SampleStream:
    """One flow's Monte-Carlo samples, drawn chunk by chunk.

    The one implementation of the seed policy that
    :meth:`MonteCarloSSTA.run_reference` / :meth:`~MonteCarloSSTA.run_kle`
    and the service batcher share:

    - **one-shot** (``chunk_size`` unset or ``N <= chunk_size``): the raw
      seed goes to a single ``generate()`` call, and the result is an
      exact :class:`~repro.timing.sta.STAResult`;
    - **chunked**: one persistent ``as_generator(seed)`` is threaded
      through per-chunk ``generate()`` calls, so successive chunks get
      independent, reproducible sub-streams for any accepted seed form,
      and chunks merge into a :class:`StreamingSTAResult` whose
      statistics are those of one ``N``-sample run.  Samples are
      *generated* per chunk too, so peak memory is bounded by
      ``chunk_size × N_g`` end to end.

    Wire fields, when the harness varies wires, come from a second stream
    seeded with the flow seed shifted twice (one-shot: derived after the
    parameter draw; chunked: one persistent generator).
    ``sample_seconds`` sums the generators' own timings.

    ``quantiles`` selects worst-delay quantile levels to track: chunked
    runs estimate them with P² (no retention), one-shot runs report them
    exactly — both through ``quantile_worst_delay``.

    Callers alternate :meth:`draw`, which leaves the next chunk in
    :attr:`parameters` and :attr:`wire_scales`, and :meth:`record` (that
    chunk's STA result) until :attr:`done`.  A chunk is released only
    once the next draw has generated its replacement, or when the stream
    completes: freeing it before the draw hands its pages back to the
    OS and makes every chunk fault them in again.
    """

    def __init__(
        self,
        harness: "MonteCarloSSTA",
        flow: str,
        num_samples: int,
        *,
        seed: SeedLike = None,
        chunk_size: Optional[int] = None,
        quantiles: Sequence[float] = (),
    ) -> None:
        if flow not in ("kle", "reference"):
            raise ValueError(f"unknown flow {flow!r}")
        kle = flow == "kle"
        self._harness = harness
        self._generator: SampleGenerator = (
            harness.kle_generator if kle else harness.reference_generator
        )
        self._wire_generator: Optional[SampleGenerator] = None
        if harness.wire_sigma:
            self._wire_generator = (
                harness._wire_kle_generator
                if kle
                else harness._wire_reference_generator
            )
        self.num_samples = num_samples
        self.produced = 0
        self.sample_seconds = 0.0
        #: The last drawn chunk: parameter samples (factored
        #: :class:`~repro.field.sampling.FieldSamples` on the KLE flow,
        #: passed through unread) and wire R/C scales.
        self.parameters: Mapping[str, np.ndarray] = {}
        self.wire_scales: Optional[Dict[str, np.ndarray]] = None
        self.sta: Union[None, STAResult, StreamingSTAResult] = None
        self._chunk_size: Optional[int] = None
        self._seed = seed
        self._wire_seed: SeedLike = None
        if chunk_size is not None and num_samples > chunk_size:
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
            self._chunk_size = chunk_size
            self._seed = as_generator(seed)
            if self._wire_generator is not None:
                self._wire_seed = as_generator(_shift_seed(_shift_seed(seed)))
            self.sta = StreamingSTAResult(quantiles=quantiles)

    @property
    def done(self) -> bool:
        """Whether every requested sample has been drawn and recorded."""
        return self.sta is not None and self.produced >= self.num_samples

    def draw(self) -> int:
        """Generate the next chunk; returns its number of rows."""
        rows = self.num_samples - self.produced
        if self._chunk_size is not None:
            rows = min(self._chunk_size, rows)
        harness = self._harness
        generated = self._generator.generate(
            harness.gate_locations, rows, seed=self._seed
        )
        self.sample_seconds += generated.total_seconds
        self.parameters = generated.samples
        self.wire_scales = None
        if self._wire_generator is not None:
            wire_seed = self._wire_seed
            if self._chunk_size is None:
                wire_seed = _shift_seed(_shift_seed(self._seed))
            self.wire_scales, wire_seconds = harness._wire_scales_from(
                self._wire_generator, rows, wire_seed
            )
            self.sample_seconds += wire_seconds
        return rows

    def record(self, chunk: STAResult) -> None:
        """Fold the STA result of the last drawn chunk into :attr:`sta`."""
        if isinstance(self.sta, StreamingSTAResult):
            self.sta.update(chunk)
        else:
            self.sta = chunk
        self.produced += chunk.num_samples
        if self.done:
            self.parameters, self.wire_scales = {}, None


@dataclass(frozen=True)
class SSTARun:
    """One MC-SSTA execution: timing result plus cost accounting."""

    sta: Union[STAResult, StreamingSTAResult]
    sample_seconds: float
    timer_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.sample_seconds + self.timer_seconds


@dataclass(frozen=True)
class SSTAComparison:
    """A Table 1 row: reference vs kernel-based MC-SSTA on one circuit.

    ``e_mu_percent`` / ``e_sigma_percent`` are mismatches as a percentage of
    the reference estimate (the paper's ``e_μ``, ``e_σ``); ``speedup`` is
    reference-time / KLE-time.  ``sigma_error_outputs_percent`` is the
    per-end-point σ_d error averaged over all outputs — the Fig. 6 metric.
    """

    circuit: str
    num_gates: int
    num_samples: int
    r: int
    reference_mean: float
    reference_std: float
    kle_mean: float
    kle_std: float
    e_mu_percent: float
    e_sigma_percent: float
    reference_seconds: float
    kle_seconds: float
    speedup: float
    sigma_error_outputs_percent: float


def _normalize_kernels(
    kernels: Union[CovarianceKernel, Mapping[str, CovarianceKernel]],
) -> Dict[str, CovarianceKernel]:
    """Accept one shared kernel or a per-parameter mapping."""
    if isinstance(kernels, CovarianceKernel):
        return {name: kernels for name in STATISTICAL_PARAMETERS}
    kernels = dict(kernels)
    unknown = set(kernels) - set(STATISTICAL_PARAMETERS)
    if unknown:
        raise ValueError(f"unknown statistical parameters: {sorted(unknown)}")
    if not kernels:
        raise ValueError("need at least one parameter kernel")
    return kernels


def _normalize_kles(
    kles: Union[KLEResult, Mapping[str, KLEResult]],
    parameter_names: Iterable[str],
) -> Dict[str, KLEResult]:
    if isinstance(kles, KLEResult):
        return {name: kles for name in parameter_names}
    kles = dict(kles)
    missing = set(parameter_names) - set(kles)
    if missing:
        raise ValueError(f"missing KLE for parameters: {sorted(missing)}")
    return kles


class MonteCarloSSTA:
    """The paper's experimental harness on one placed circuit.

    Parameters
    ----------
    netlist / placement:
        The circuit under analysis (gate locations drive the correlation).
    kernels:
        Covariance kernel(s) of the statistical parameters: a single kernel
        shared by all four (the paper's setup) or a per-parameter mapping.
    kle:
        Solved :class:`KLEResult` (or per-parameter mapping) matching the
        kernels; used by the Algorithm 2 flow.
    r:
        KLE truncation order; ``None`` applies the 1 % criterion.
    library:
        Cell library (default 90nm-class).
    wire_sigma:
        Optional interconnect-variation extension: a mapping with keys
        ``"R"`` and/or ``"C"`` giving the fractional one-sigma variation
        of each net's metal resistance / capacitance (e.g.
        ``{"R": 0.10, "C": 0.08}``).  Wire variation fields share the gate
        parameters' spatial kernel and flow through *both* algorithms
        (Cholesky at net-driver locations for the reference, the same KLE
        for Algorithm 2), so the comparison stays apples-to-apples.
    engine:
        STA engine mode forwarded to :class:`STAEngine` (``"compiled"``,
        the default, or ``"reference"`` for the per-gate Python loop).
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        kernels: Union[CovarianceKernel, Mapping[str, CovarianceKernel]],
        kle: Union[KLEResult, Mapping[str, KLEResult]],
        *,
        r: Optional[int] = None,
        library: Optional[CellLibrary] = None,
        wire_sigma: Optional[Mapping[str, float]] = None,
        engine: str = "compiled",
    ):
        self.netlist = netlist
        self.placement = placement
        self.kernels = _normalize_kernels(kernels)
        self.kles = _normalize_kles(kle, self.kernels.keys())
        self.engine = STAEngine(netlist, placement, library, engine=engine)
        self.gate_locations = placement.gate_locations()
        self.reference_generator = CholeskySampleGenerator(self.kernels)
        self.kle_generator = KLESampleGenerator(self.kles, r=r)
        self.wire_sigma = dict(wire_sigma) if wire_sigma else None
        if self.wire_sigma:
            unknown = set(self.wire_sigma) - {"R", "C"}
            if unknown:
                raise ValueError(
                    f"wire_sigma keys must be 'R'/'C', got {sorted(unknown)}"
                )
            if any(s <= 0.0 or s >= 1.0 for s in self.wire_sigma.values()):
                raise ValueError("wire_sigma values must lie in (0, 1)")
            self._net_locations = self.engine.net_driver_locations()
            shared_kernel = next(iter(self.kernels.values()))
            shared_kle = next(iter(self.kles.values()))
            self._wire_reference_generator = CholeskySampleGenerator(
                {key: shared_kernel for key in self.wire_sigma}
            )
            self._wire_kle_generator = KLESampleGenerator(
                {key: shared_kle for key in self.wire_sigma},
                r=max(self.kle_generator.r.values()),
            )

    def _wire_scales_from(
        self,
        generator: "SampleGenerator",
        num_samples: int,
        seed: SeedLike,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        """Draw normalized wire fields and convert to positive scales."""
        generated = generator.generate(
            self._net_locations, num_samples, seed=seed
        )
        scales = {}
        for key, sigma in self.wire_sigma.items():
            scales[key] = np.clip(
                1.0 + sigma * generated.samples[key], 0.05, None
            )
        return scales, generated.total_seconds

    @property
    def r(self) -> int:
        """The truncation order actually used (max across parameters)."""
        return max(self.kle_generator.r.values())

    # ------------------------------------------------------------------
    # The two flows.
    # ------------------------------------------------------------------
    def run_reference(
        self,
        num_samples: int,
        *,
        seed: SeedLike = None,
        chunk_size: Optional[int] = None,
        quantiles: Sequence[float] = (),
    ) -> SSTARun:
        """Algorithm 1 + STA: the exact, full-dimensional reference."""
        return self._run_flow(
            SampleStream(
                self,
                "reference",
                num_samples,
                seed=seed,
                chunk_size=chunk_size,
                quantiles=quantiles,
            )
        )

    def run_kle(
        self,
        num_samples: int,
        *,
        seed: SeedLike = None,
        chunk_size: Optional[int] = None,
        quantiles: Sequence[float] = (),
    ) -> SSTARun:
        """Algorithm 2 + STA: the reduced-dimensionality kernel flow."""
        return self._run_flow(
            SampleStream(
                self,
                "kle",
                num_samples,
                seed=seed,
                chunk_size=chunk_size,
                quantiles=quantiles,
            )
        )

    def _run_flow(self, stream: SampleStream) -> SSTARun:
        """Run ``stream`` through the engine chunk by chunk."""
        timer_seconds = 0.0
        while not stream.done:
            stream.draw()
            start = time.perf_counter()
            chunk = self.engine.run(
                stream.parameters, wire_scales=stream.wire_scales
            )
            timer_seconds += time.perf_counter() - start
            stream.record(chunk)
        assert stream.sta is not None
        return SSTARun(stream.sta, stream.sample_seconds, timer_seconds)

    # ------------------------------------------------------------------
    # The Table 1 comparison.
    # ------------------------------------------------------------------
    def compare(
        self,
        num_samples: int,
        *,
        seed: SeedLike = 0,
        circuit_name: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> SSTAComparison:
        """Run both flows and produce one Table 1 row.

        The flows use *independent* random streams (as in the paper, where
        both are separate 100K-sample MC runs); mismatches therefore
        include MC noise of order ``1/sqrt(N)``.  ``chunk_size`` streams
        both flows (see :meth:`run_reference`) so paper-scale ``N`` fits
        in bounded memory.
        """
        reference = self.run_reference(
            num_samples, seed=seed, chunk_size=chunk_size
        )
        kle = self.run_kle(
            num_samples, seed=_shift_seed(seed), chunk_size=chunk_size
        )

        ref_mean = reference.sta.mean_worst_delay()
        ref_std = reference.sta.std_worst_delay()
        kle_mean = kle.sta.mean_worst_delay()
        kle_std = kle.sta.std_worst_delay()
        e_mu = 100.0 * abs(kle_mean - ref_mean) / abs(ref_mean)
        e_sigma = 100.0 * abs(kle_std - ref_std) / abs(ref_std)

        sigma_err = sigma_error_over_outputs(reference.sta, kle.sta)

        return SSTAComparison(
            circuit=circuit_name or self.netlist.name,
            num_gates=self.netlist.num_gates,
            num_samples=num_samples,
            r=self.r,
            reference_mean=ref_mean,
            reference_std=ref_std,
            kle_mean=kle_mean,
            kle_std=kle_std,
            e_mu_percent=e_mu,
            e_sigma_percent=e_sigma,
            reference_seconds=reference.total_seconds,
            kle_seconds=kle.total_seconds,
            speedup=reference.total_seconds / max(kle.total_seconds, 1e-12),
            sigma_error_outputs_percent=sigma_err,
        )


def sigma_error_over_outputs(
    reference: Union[STAResult, StreamingSTAResult],
    candidate: Union[STAResult, StreamingSTAResult],
) -> float:
    """Mean relative σ_d error over all circuit end points, in percent.

    This is the Fig. 6 y-axis: "error ... averaged across all the outputs
    of the circuit".  End points whose reference σ is (numerically) zero
    are skipped.
    """
    ref_sigma = reference.output_sigma()
    cand_sigma = candidate.output_sigma()
    errors = []
    for net, sigma in ref_sigma.items():
        if net not in cand_sigma or sigma <= 1e-12:
            continue
        errors.append(abs(cand_sigma[net] - sigma) / sigma)
    if not errors:
        return 0.0
    return 100.0 * float(np.mean(errors))


def _shift_seed(seed: SeedLike) -> SeedLike:
    """Derive an independent stream for the second flow."""
    if seed is None or isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(1)[0]
    return int(seed) + 0x9E3779B9
