"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: a name, a start and an end in
monotonic nanoseconds, the span that caused it (its parent) and the op
it belongs to.  Spans opened with :meth:`Tracer.span` find their parent
through a context variable, so nesting follows the call stack and a
thread started under :func:`contextvars.copy_context` inherits it.
Spans timed elsewhere (a collector thread watching a request finish)
are added with :meth:`Tracer.record`.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`,
when the run ends.  A disabled tracer records nothing; its ``span`` costs
one branch.

Self time is a span's duration minus the part of it that its children
cover; children may overlap (concurrent requests), so the covered part
is the union of their intervals.  Spans named ``bench.*`` are the
benchmark's own code, so their self time is time no layer accounts for.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: Prefix of spans that time the benchmark's own code, not a layer.
GLUE_PREFIX = "bench."

#: ``(span id, op id)`` of the innermost open span in this context.  One
#: tracer is active per process; it is the only writer.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, Optional[int]]]] = (
    contextvars.ContextVar("bench_current_span", default=None)
)


@dataclass(frozen=True)
class Span:
    """One finished span."""

    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int] = None
    op: Optional[int] = None
    attrs: Mapping[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans in memory; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> int:
        """Reserve a span id, for a span recorded after its children."""
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(
        self, name: str, *, op: Optional[int] = None, **attrs: object
    ) -> Iterator[None]:
        """Time the enclosed block as a child of the current span.

        ``op`` starts a new op; without it the span joins its parent's.
        """
        if not self.enabled:
            yield
            return
        current = _CURRENT.get()
        parent, parent_op = current if current is not None else (None, None)
        op = parent_op if op is None else op
        span_id = self.new_id()
        token = _CURRENT.set((span_id, op))
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            _CURRENT.reset(token)
            self._append(Span(span_id, name, start, end, parent, op, attrs))

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        parent: Optional[int] = None,
        op: Optional[int] = None,
        span_id: Optional[int] = None,
        **attrs: object,
    ) -> None:
        """Add a span timed by the caller (``span_id`` from :meth:`new_id`)."""
        if not self.enabled:
            return
        if end_ns < start_ns:
            raise ValueError(f"span {name!r} ends before it starts")
        if span_id is None:
            span_id = self.new_id()
        self._append(Span(span_id, name, start_ns, end_ns, parent, op, attrs))

    def _append(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str, summary: Mapping[str, object]) -> None:
        """Write every span, with its self time, plus ``summary`` as JSON."""
        with self._lock:
            spans = list(self.spans)
        own = self_times(spans)
        records = []
        for span in sorted(spans, key=lambda s: s.start_ns):
            record = asdict(span)
            record["attrs"] = dict(span.attrs)
            record["self_ns"] = own[span.id]
            records.append(record)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "spans": records}, handle, indent=1)
            handle.write("\n")


def _covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id → nanoseconds of the span not covered by its children."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns)
            )
    return {
        span.id: span.duration_ns
        - _covered_ns(children.get(span.id, ()), span.start_ns, span.end_ns)
        for span in spans
    }


def seconds_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Total duration of the spans of each name, in seconds."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_ns * 1e-9
    return totals


def seconds_by_op(spans: Iterable[Span]) -> Dict[int, Dict[str, float]]:
    """Op id → total duration of each span name within that op, in seconds."""
    ops: Dict[int, List[Span]] = {}
    for span in spans:
        if span.op is not None:
            ops.setdefault(span.op, []).append(span)
    return {op: seconds_by_name(members) for op, members in ops.items()}


def unaccounted_share(spans: Sequence[Span]) -> float:
    """Share of the traced time spent in no layer.

    That is the self time of every ``bench.*`` span over the total
    duration of the root spans (those without a parent).
    """
    total = sum(s.duration_ns for s in spans if s.parent is None)
    if total == 0:
        return 0.0
    own = self_times(spans)
    glue = sum(own[s.id] for s in spans if s.name.startswith(GLUE_PREFIX))
    return glue / total
