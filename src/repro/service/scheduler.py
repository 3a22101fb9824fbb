"""Admission control and worker fan-out for the SSTA daemon.

A bounded priority queue fronts a small :class:`ThreadPoolExecutor`
worker pool.  Admission applies backpressure by rejecting submissions
over capacity (:class:`QueueFullError`) rather than queueing unboundedly;
priorities order service (higher first, FIFO within a priority); a
request whose ``timeout_s`` expires while queued is terminated with
``TIMED_OUT`` instead of occupying a sweep.

Workers pop the best-priority request and greedily coalesce up to
``max_batch_requests`` compatible requests (equal batch keys) from the
queue into one shared sweep — the batching that turns N queued analyses
of the same circuit/kernel/rank into one resident-engine pass.  Artifact
resolution failures fail only the affected batch; the worker loop keeps
serving (the never-wedge-the-queue contract).
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.service.artifacts import ArtifactBuildError, ArtifactRegistry
from repro.service.batcher import ActiveRequest, execute_batch, fail_batch
from repro.service.faults import FaultInjector
from repro.service.request import RequestStatus, ServiceConfig, ServiceResult


class QueueFullError(RuntimeError):
    """Admission rejected: the queue is at capacity (backpressure)."""


@dataclass(order=True)
class _QueueEntry:
    """Heap entry ordering requests by (-priority, admission order)."""

    sort_key: Tuple[int, int]
    active: ActiveRequest = field(compare=False)


def _run_worker(scheduler: "Scheduler", index: int) -> None:
    """Worker-thread entry point: serve batches until the scheduler stops.

    Module-level by design so the lock-discipline gate
    (REPRO-LOCK001/002) resolves the ``pool.submit`` root and walks the
    whole serving call graph from here.
    """
    scheduler.serve_forever(index)


class Scheduler:
    """Bounded priority admission queue plus worker fan-out.

    All mutable state is instance-owned and lock-guarded; the only
    process-wide state a worker touches is the artifact registry, whose
    accessors are themselves serialized per artifact.
    """

    def __init__(
        self,
        config: ServiceConfig,
        registry: ArtifactRegistry,
        faults: FaultInjector,
    ) -> None:
        self.config = config
        self.registry = registry
        self.faults = faults
        self._heap: List[_QueueEntry] = []
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._seq = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._workers: List["Future[None]"] = []

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the worker pool (idempotent)."""
        with self._lock:
            if self._pool is not None:
                return
            pool = ThreadPoolExecutor(
                max_workers=self.config.num_workers,
                thread_name_prefix="ssta-worker",
            )
            self._pool = pool
            for index in range(self.config.num_workers):
                self._workers.append(pool.submit(_run_worker, self, index))

    def stop(self) -> None:
        """Stop serving: fail queued requests, then join the workers."""
        self._stop.set()
        with self._available:
            pending = [entry.active for entry in self._heap]
            self._heap.clear()
            self._available.notify_all()
        for active in pending:
            active.finish(
                ServiceResult(
                    request_id=active.stream.request_id,
                    status=RequestStatus.FAILED,
                    error="service stopped before the request was served",
                    wait_seconds=time.monotonic() - active.submitted_at,
                )
            )
        with self._lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            self._workers.clear()

    @property
    def running(self) -> bool:
        """Whether the worker pool is up and accepting work."""
        with self._lock:
            pool = self._pool
        return pool is not None and not self._stop.is_set()

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def submit(self, active: ActiveRequest) -> None:
        """Admit one request, or raise :class:`QueueFullError`.

        Capacity is the backpressure boundary: over-capacity submissions
        are rejected immediately (the client can retry) instead of
        growing an unbounded backlog.
        """
        if self._stop.is_set():
            raise RuntimeError("scheduler is stopped")
        with self._available:
            if len(self._heap) >= self.config.max_queue:
                raise QueueFullError(
                    f"admission queue at capacity "
                    f"({self.config.max_queue} requests)"
                )
            entry = _QueueEntry(
                sort_key=(-int(active.request.priority), self._seq),
                active=active,
            )
            self._seq += 1
            heapq.heappush(self._heap, entry)
            self._available.notify()

    def queue_depth(self) -> int:
        """Requests currently queued (not yet popped by a worker)."""
        with self._lock:
            return len(self._heap)

    # ------------------------------------------------------------------
    # Serving.
    # ------------------------------------------------------------------
    def next_batch(
        self, wait_timeout_s: float = 0.25
    ) -> Optional[List[ActiveRequest]]:
        """Pop the best request plus compatible peers as one batch.

        Returns ``None`` when the queue stayed empty for the wait window
        or the scheduler is stopping.  Queue-expired requests are
        finished as ``TIMED_OUT`` here, at pop time, so they never cost a
        sweep.
        """
        with self._available:
            if not self._heap:
                self._available.wait(timeout=wait_timeout_s)
            if self._stop.is_set() or not self._heap:
                return None
            head = heapq.heappop(self._heap).active
            key = head.request.batch_key()
            batch = [head]
            kept: List[_QueueEntry] = []
            while self._heap and len(batch) < self.config.max_batch_requests:
                entry = heapq.heappop(self._heap)
                if entry.active.request.batch_key() == key:
                    batch.append(entry.active)
                else:
                    kept.append(entry)
            for entry in kept:
                heapq.heappush(self._heap, entry)
        now = time.monotonic()
        ready: List[ActiveRequest] = []
        for active in batch:
            active.wait_seconds = now - active.submitted_at
            if active.deadline is not None and now > active.deadline:
                active.finish(
                    ServiceResult(
                        request_id=active.stream.request_id,
                        status=RequestStatus.TIMED_OUT,
                        error="timed out waiting in the admission queue",
                        wait_seconds=active.wait_seconds,
                    )
                )
            else:
                ready.append(active)
        return ready or None

    def serve_one(self, batch: List[ActiveRequest]) -> None:
        """Resolve artifacts for one batch and execute it.

        An :class:`ArtifactBuildError` (cold-path failure after the
        registry's quarantine-and-retry) fails exactly this batch.
        """
        head = batch[0].request
        try:
            harness = self.registry.harness(head.circuit, head.kernel, head.r)
        except (ArtifactBuildError, ValueError, KeyError, OSError) as exc:
            fail_batch(batch, f"artifact resolution failed: {exc!r}")
            return
        execute_batch(batch, harness, self.faults)

    def serve_forever(self, index: int) -> None:
        """Main worker loop: pop batches and serve until stopped."""
        del index  # workers are symmetric; the index only names threads
        while not self._stop.is_set():
            batch = self.next_batch()
            if batch is None:
                continue
            self.serve_one(batch)
