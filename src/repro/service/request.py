"""Request/response schema of the SSTA service.

A request names its artifacts — ``circuit × kernel × rank × N × seed`` —
rather than carrying them, so the daemon can keep the expensive parts
(placements, KLE eigensolves, compiled timing programs) resident and
share them across requests.  :class:`ServiceConfig` fixes the artifact
universe (which kernels exist, the die, the mesh, the KLE resolution);
:class:`AnalysisRequest` selects from it.

Determinism contract: a request's result is a pure function of the
request tuple.  It does not depend on which other requests it was
batched with, on queue order, or on worker count — the batcher consumes
each request's own :class:`~repro.timing.ssta.SampleStream`, the same
stream a serial :class:`~repro.timing.ssta.MonteCarloSSTA` run draws
from, and the shared STA sweep is bitwise row-independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.kernels import (
    CovarianceKernel,
    GaussianKernel,
    SeparableExponentialKernel,
)
from repro.timing.sta import ENGINE_MODES, STAResult
from repro.timing.ssta import StreamingSTAResult

#: Sampling flows a request may select: ``"kle"`` is the paper's
#: Algorithm 2 (reduced-dimensionality), ``"reference"`` Algorithm 1
#: (full-covariance Cholesky).
FLOW_MODES = ("kle", "reference")


def default_kernels() -> Dict[str, CovarianceKernel]:
    """The kernels a default-configured service keeps resident.

    ``"gaussian"`` is the experiment-style Gaussian kernel; ``"separable"``
    the separable-exponential alternative from the paper's kernel family.
    """
    return {
        "gaussian": GaussianKernel(c=2.7),
        "separable": SeparableExponentialKernel(c=1.0),
    }


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one :class:`~repro.service.SSTAService`.

    The config fixes the artifact universe (kernels by name, die bounds,
    mesh resolution, KLE eigenpair count) plus the operational envelope:
    worker count, admission-queue capacity, batch width, and per-stream
    buffering.  ``cache_directory`` enables the checksummed on-disk
    artifact cache for placements and KLE eigensolves (``None`` keeps the
    service fully in-memory/hermetic).  ``kernel_threads`` pins the
    native STA kernel's sample-lane worker count for every resident
    engine (``None`` defers to ``REPRO_NATIVE_THREADS`` per run); it is
    multiplicative with ``num_workers``, so a saturated service should
    keep ``num_workers * kernel_threads`` near the core count.
    The resident KLEs come from :func:`repro.core.galerkin.solve_kle`,
    which picks the eigensolver from the mesh size.
    """

    kernels: Mapping[str, CovarianceKernel] = field(
        default_factory=default_kernels
    )
    die_bounds: Tuple[float, float, float, float] = (-1.0, -1.0, 1.0, 1.0)
    mesh_divisions: Tuple[int, int] = (12, 12)
    num_eigenpairs: int = 60
    placement_seed: int = 2008
    engine: str = "compiled"
    num_workers: int = 2
    max_queue: int = 64
    max_batch_requests: int = 8
    stream_buffer_chunks: int = 8
    stream_put_timeout_s: float = 30.0
    root_seed: Optional[int] = None
    cache_directory: Optional[str] = None
    kernel_threads: Optional[int] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on an internally inconsistent config."""
        if self.engine not in ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {ENGINE_MODES}, got {self.engine!r}"
            )
        if not self.kernels:
            raise ValueError("config must define at least one kernel")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be >= 1")
        if self.stream_buffer_chunks < 1:
            raise ValueError("stream_buffer_chunks must be >= 1")
        if self.kernel_threads is not None and self.kernel_threads < 1:
            raise ValueError("kernel_threads must be >= 1 when given")


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis request: ``circuit × kernel × rank × N × seed``.

    ``seed=None`` asks the service to assign an independent per-request
    :class:`numpy.random.SeedSequence` child from its root (the sanctioned
    unseeded-but-reproducible-within-a-run form); any explicit seed makes
    the result bitwise-reproducible across runs and identical to a serial
    :class:`~repro.timing.ssta.MonteCarloSSTA` run with the same
    parameters.  ``chunk_size`` selects the streamed path exactly as in
    ``MonteCarloSSTA`` (``None`` or ``N <= chunk_size`` is the one-shot
    exact path).  ``priority`` orders admission (higher first);
    ``timeout_s`` bounds queue wait.  ``include_samples`` attaches each
    chunk's per-end-point arrival arrays to the stream (off by default —
    worst-delay vectors are always streamed).
    """

    circuit: str
    kernel: str = "gaussian"
    r: Optional[int] = None
    num_samples: int = 1000
    seed: Union[None, int, np.random.SeedSequence] = None
    flow: str = "kle"
    chunk_size: Optional[int] = None
    quantiles: Tuple[float, ...] = ()
    include_samples: bool = False
    priority: int = 0
    timeout_s: Optional[float] = None

    def validate(self, config: ServiceConfig) -> None:
        """Raise ``ValueError`` if the request is malformed for ``config``."""
        if not self.circuit:
            raise ValueError("request must name a circuit")
        if self.kernel not in config.kernels:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; configured: "
                f"{sorted(config.kernels)}"
            )
        if self.flow not in FLOW_MODES:
            raise ValueError(
                f"flow must be one of {FLOW_MODES}, got {self.flow!r}"
            )
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")
        if self.r is not None and self.r < 1:
            raise ValueError("r must be >= 1 when given")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError("timeout_s must be positive when given")
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantiles must lie in (0, 1), got {q}")

    def batch_key(self) -> Tuple[str, str, Optional[int], str]:
        """Compatibility class for shared-sweep batching.

        Requests with equal keys share one resident harness (same circuit,
        kernel, truncation order and flow) and may be fused into a single
        STA sweep; ``N``, ``seed`` and chunking stay per-request.
        """
        return (self.circuit, self.kernel, self.r, self.flow)


class RequestStatus(enum.Enum):
    """Lifecycle of a submitted request."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"

    def is_terminal(self) -> bool:
        """Whether this status ends the request's stream."""
        return self not in (RequestStatus.PENDING, RequestStatus.RUNNING)


@dataclass(frozen=True)
class ChunkResult:
    """One streamed chunk of a request's sweep.

    ``worst_delay`` is the chunk's per-sample chip-level delay vector
    (always present — it is what determinism tests compare bitwise);
    ``end_arrivals`` carries the per-end-point sample arrays only when
    the request set ``include_samples``.
    """

    request_id: str
    index: int
    start: int
    num_samples: int
    worst_delay: np.ndarray
    end_arrivals: Optional[Dict[str, np.ndarray]] = None


@dataclass(frozen=True)
class ServiceResult:
    """Terminal response of one request.

    ``sta`` duck-types the :class:`~repro.timing.sta.STAResult` summary
    surface: an exact ``STAResult`` for one-shot requests, a
    :class:`~repro.timing.ssta.StreamingSTAResult` for chunked ones —
    matching what a serial ``MonteCarloSSTA`` run would have returned.
    ``batch_size`` reports how many requests shared the sweep (purely
    informational; it never affects the numbers).
    """

    request_id: str
    status: RequestStatus
    sta: Optional[Union[STAResult, StreamingSTAResult]] = None
    error: Optional[str] = None
    num_samples: int = 0
    sample_seconds: float = 0.0
    timer_seconds: float = 0.0
    wait_seconds: float = 0.0
    batch_size: int = 0

    @property
    def ok(self) -> bool:
        """Whether the request completed with a full result."""
        return self.status is RequestStatus.DONE
