"""Shared-sweep batching with per-request bitwise determinism.

Compatible requests (equal :meth:`AnalysisRequest.batch_key` — same
circuit, kernel, rank and flow) are fused into shared STA sweeps: each
round, every live request contributes its next chunk of parameter
samples, the concatenated block runs through the resident engine *once*,
and the rows are split back per request.  KLE chunks stay factored
(:class:`~repro.field.sampling.FieldSamples`): each request's ξ is its
own part, projected by its own GEMM into its rows of the sweep's ``u``.

Determinism is structural, not statistical.  Each request consumes its
own :class:`~repro.timing.ssta.SampleStream` — the very object a serial
:class:`~repro.timing.ssta.MonteCarloSSTA` run draws from, so the seed
policy exists once — and the engine's sample axis is bitwise
row-independent (blocked execution never mixes samples), so the split
rows, the per-chunk :class:`StreamingSTAResult` updates, and therefore
every reported statistic are bitwise identical to the serial run
regardless of batch composition, ordering, or worker count.

Failure containment: a generation- or sweep-stage failure (injected or
real) fails the requests in that batch with a typed error and returns —
the worker and its queue keep serving.  Cancelled or slow-consumer
streams are detected at chunk boundaries and dropped from subsequent
rounds without touching their batch peers' sample streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.field.sampling import FieldSamples
from repro.service.faults import FaultInjector
from repro.service.request import (
    AnalysisRequest,
    ChunkResult,
    RequestStatus,
    ServiceResult,
)
from repro.service.stream import ResultStream
from repro.timing.ssta import MonteCarloSSTA, SampleStream
from repro.timing.sta import STAResult
from repro.utils.rng import SeedLike


@dataclass
class ActiveRequest:
    """One admitted request plus its per-sweep runtime state."""

    request: AnalysisRequest
    stream: ResultStream
    seed: SeedLike
    submitted_at: float
    deadline: Optional[float] = None
    wait_seconds: float = 0.0
    # Runtime state, set by `execute_batch` at batch start.
    samples: Optional[SampleStream] = None
    chunk_index: int = 0
    timer_seconds: float = 0.0
    finished: bool = field(default=False)

    def finish(self, result: ServiceResult) -> None:
        """Publish the terminal result exactly once."""
        if not self.finished:
            self.finished = True
            self.stream.finish(result)


def _terminal(
    active: ActiveRequest,
    status: RequestStatus,
    *,
    error: Optional[str] = None,
    batch_size: int = 0,
) -> ServiceResult:
    """Build the terminal :class:`ServiceResult` for ``active``."""
    samples = active.samples
    done = status is RequestStatus.DONE
    return ServiceResult(
        request_id=active.stream.request_id,
        status=status,
        sta=samples.sta if done and samples is not None else None,
        error=error,
        num_samples=samples.produced if done and samples is not None else 0,
        sample_seconds=samples.sample_seconds if samples is not None else 0.0,
        timer_seconds=active.timer_seconds,
        wait_seconds=active.wait_seconds,
        batch_size=batch_size,
    )


def _generation_round(
    live: List[ActiveRequest], batch_size: int
) -> List[Tuple[ActiveRequest, SampleStream, int]]:
    """Draw each live request's next chunk from its own sample stream.

    Cancelled streams are finished and skipped *before* their sample
    stream would have been advanced, so a disconnect never perturbs the
    request's own (or any peer's) samples had it survived.
    """
    parts: List[Tuple[ActiveRequest, SampleStream, int]] = []
    for active in live:
        if active.stream.cancelled:
            active.finish(
                _terminal(
                    active,
                    RequestStatus.CANCELLED,
                    error=active.stream.cancel_reason,
                    batch_size=batch_size,
                )
            )
            continue
        assert active.samples is not None
        parts.append((active, active.samples, active.samples.draw()))
    return parts


def _concatenate(
    blocks: Sequence[Mapping[str, np.ndarray]],
) -> Mapping[str, np.ndarray]:
    """Stack per-request samples along the sample axis."""
    if isinstance(blocks[0], FieldSamples):
        return FieldSamples.concatenate(blocks)
    return {
        name: np.concatenate([block[name] for block in blocks])
        for name in blocks[0]
    }


def _split_round(
    parts: List[Tuple[ActiveRequest, SampleStream, int]],
    sta: STAResult,
    sweep_seconds: float,
    batch_size: int,
) -> List[ActiveRequest]:
    """Split a fused sweep's rows back per request and stream them out.

    Returns the requests still live for the next round.
    """
    total_rows = sum(rows for _, _, rows in parts)
    survivors: List[ActiveRequest] = []
    offset = 0
    for active, samples, rows in parts:
        worst = sta.worst_delay[offset : offset + rows]
        ends = {
            net: values[offset : offset + rows]
            for net, values in sta.end_arrivals.items()
        }
        offset += rows
        active.timer_seconds += sweep_seconds * (rows / max(total_rows, 1))
        chunk = ChunkResult(
            request_id=active.stream.request_id,
            index=active.chunk_index,
            start=samples.produced,
            num_samples=rows,
            worst_delay=worst,
            end_arrivals=ends if active.request.include_samples else None,
        )
        samples.record(
            STAResult(end_arrivals=ends, worst_delay=worst, num_samples=rows)
        )
        active.chunk_index += 1
        if not active.stream.offer(chunk):
            active.finish(
                _terminal(
                    active,
                    RequestStatus.CANCELLED,
                    error=active.stream.cancel_reason,
                    batch_size=batch_size,
                )
            )
            continue
        if samples.done:
            active.finish(
                _terminal(active, RequestStatus.DONE, batch_size=batch_size)
            )
        else:
            survivors.append(active)
    return survivors


def fail_batch(batch: List[ActiveRequest], error: str) -> None:
    """Fail every unfinished request in ``batch`` with ``error``.

    Used by the worker when artifact resolution, sample generation or
    the sweep stage dies: the affected requests get a terminal FAILED
    result, the queue keeps serving everything else.
    """
    for active in batch:
        active.finish(
            _terminal(
                active,
                RequestStatus.FAILED,
                error=error,
                batch_size=len(batch),
            )
        )


def execute_batch(
    batch: List[ActiveRequest],
    harness: MonteCarloSSTA,
    faults: FaultInjector,
) -> None:
    """Run one admitted batch to completion over shared STA sweeps.

    Every request in ``batch`` shares the harness (equal batch keys);
    rounds continue until each request is DONE, CANCELLED, TIMED_OUT or
    FAILED.  All terminal outcomes are published on the per-request
    streams — this function never raises on a per-batch failure.
    """
    batch_size = len(batch)
    live: List[ActiveRequest] = []
    for active in batch:
        if (
            active.deadline is not None
            and time.monotonic() > active.deadline
        ):
            active.finish(
                _terminal(
                    active,
                    RequestStatus.TIMED_OUT,
                    error="deadline expired before processing",
                    batch_size=batch_size,
                )
            )
            continue
        request = active.request
        active.samples = SampleStream(
            harness,
            request.flow,
            request.num_samples,
            seed=active.seed,
            chunk_size=request.chunk_size,
            quantiles=request.quantiles,
        )
        live.append(active)

    while live:
        stage = "sample generation"
        try:
            parts = _generation_round(live, batch_size)
            if not parts:
                return
            streams = [samples for _, samples, _ in parts]
            parameters = _concatenate([s.parameters for s in streams])
            wires = [s.wire_scales for s in streams if s.wire_scales]
            wire_scales = _concatenate(wires) if wires else None
            stage = "sweep"
            start = time.perf_counter()
            faults.fire("sweep")
            sta = harness.engine.run(parameters, wire_scales=wire_scales)
        except Exception as exc:  # repro-lint: disable=REPRO-EXC001
            # Containment boundary: a failed generation round or sweep
            # fails this batch's requests with a typed terminal result and
            # returns; the worker loop (and every other queued request)
            # keeps going.
            fail_batch(live, f"{stage} failed: {exc!r}")
            return
        sweep_seconds = time.perf_counter() - start
        live = _split_round(parts, sta, sweep_seconds, batch_size)
