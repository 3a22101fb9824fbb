"""Convenience client surface over a running :class:`SSTAService`.

The service API is deliberately low-level (submit → stream → result);
:class:`ServiceClient` adds the blocking one-call form most callers
want, and :func:`run_cold_request` is the process-local *cold path* —
build everything from scratch, run once, throw it away.  Run through
``python -m repro.service once`` subprocesses, it is the
process-per-request baseline the warm daemon is measured against.
"""

from __future__ import annotations

from typing import Optional

from repro.service.batcher import ActiveRequest, execute_batch
from repro.service.faults import FaultInjector
from repro.service.request import (
    AnalysisRequest,
    ServiceConfig,
    ServiceResult,
)
from repro.service.server import SSTAService
from repro.service.stream import ResultStream


class ServiceClient:
    """Blocking convenience wrapper around one in-process service."""

    def __init__(self, service: SSTAService) -> None:
        self.service = service

    def analyze(
        self,
        request: AnalysisRequest,
        *,
        timeout_s: Optional[float] = 300.0,
    ) -> ServiceResult:
        """Submit and block for the terminal result."""
        return self.service.submit(request).result(timeout_s=timeout_s)

    def analyze_async(self, request: AnalysisRequest) -> ResultStream:
        """Submit and return the stream for incremental consumption."""
        return self.service.submit(request)


def run_cold_request(
    request: AnalysisRequest,
    config: Optional[ServiceConfig] = None,
) -> ServiceResult:
    """Serve one request with *no* residency: the cold-path baseline.

    Builds the registry, resolves every artifact, runs the sweep and
    discards all of it — exactly what a process-per-request deployment
    pays on each invocation.  The result is still produced through the
    same batcher, so cold and warm answers are bitwise identical for
    equal request tuples.
    """
    from repro.service.artifacts import ArtifactRegistry

    effective = config if config is not None else ServiceConfig()
    request.validate(effective)
    faults = FaultInjector()
    registry = ArtifactRegistry(effective, faults)
    harness = registry.warm_up(request.circuit, request.kernel, request.r)
    # Nobody drains chunks while the synchronous sweep runs, so size the
    # buffer for the whole stream up front.
    chunk = request.chunk_size or request.num_samples
    total_chunks = -(-request.num_samples // max(chunk, 1)) + 1
    stream = ResultStream(
        request, "cold-000000", buffer_chunks=total_chunks
    )
    active = ActiveRequest(
        request=request,
        stream=stream,
        seed=request.seed,
        submitted_at=0.0,
    )
    execute_batch([active], harness, faults)
    return stream.result(timeout_s=0.0)
