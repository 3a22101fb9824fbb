"""Unit tests of the span recorder: nesting, self time, unaccounted share, dump."""

import contextvars
import json
import threading

import pytest

from bench.trace import Tracer, seconds_by_op, self_times, unaccounted_share


def test_nested_spans_record_parent_and_inherit_op():
    tracer = Tracer()
    with tracer.span("bench.op", op=7):
        with tracer.span("field.generate"):
            pass
        with tracer.span("timing.sta", flow="kle"):
            pass
    with tracer.span("bench.setup"):
        pass
    by_name = {s.name: s for s in tracer.spans}
    op = by_name["bench.op"]
    assert op.parent is None and op.op == 7
    for child in ("field.generate", "timing.sta"):
        assert by_name[child].parent == op.id
        assert by_name[child].op == 7
        assert op.start_ns <= by_name[child].start_ns <= by_name[child].end_ns <= op.end_ns
    assert by_name["timing.sta"].attrs == {"flow": "kle"}
    assert by_name["bench.setup"].parent is None
    assert by_name["bench.setup"].op is None


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("bench.op", op=1):
        tracer.record("service.request", 0, 10)
    assert tracer.spans == []


def test_thread_started_in_a_copied_context_nests_under_the_open_span():
    tracer = Tracer()

    def work():
        with tracer.span("service.request"):
            pass

    with tracer.span("bench.op", op=3):
        worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    request = by_name["service.request"]
    assert request.parent == by_name["bench.op"].id and request.op == 3


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = Tracer()
    root = tracer.new_id()
    # Children cover [10, 40] and [30, 60] (overlapping) and [90, 95].
    tracer.record("service.request", 10, 40, parent=root)
    tracer.record("service.request", 30, 60, parent=root)
    tracer.record("service.submit", 90, 95, parent=root)
    # A child sticking out of its parent only counts inside it.
    tracer.record("service.request", 95, 120, parent=root)
    tracer.record("bench.op", 0, 100, span_id=root)
    own = self_times(tracer.spans)
    assert own[root] == 100 - 50 - 5 - 5
    leaves = [s for s in tracer.spans if s.id != root]
    assert all(own[s.id] == s.duration_ns for s in leaves)


def test_unaccounted_share_is_bench_self_time_over_root_time():
    tracer = Tracer()
    setup, op = tracer.new_id(), tracer.new_id()
    tracer.record("mesh.build", 0, 60, parent=setup)
    tracer.record("bench.setup", 0, 100, span_id=setup)
    tracer.record("field.generate", 200, 290, parent=op, op=1)
    tracer.record("bench.op", 200, 300, span_id=op, op=1)
    assert unaccounted_share(tracer.spans) == (40 + 10) / 200
    assert seconds_by_op(tracer.spans) == {
        1: {"field.generate": pytest.approx(90e-9), "bench.op": pytest.approx(100e-9)}
    }
    assert unaccounted_share([]) == 0.0


def test_dump_writes_every_span_with_self_time_and_the_summary(tmp_path):
    tracer = Tracer()
    with tracer.span("bench.op", op=1):
        with tracer.span("timing.sta", flow="reference"):
            pass
    path = tmp_path / "trace.json"
    tracer.dump(str(path), {"workload": "demo"})
    document = json.loads(path.read_text())
    assert document["summary"] == {"workload": "demo"}
    spans = {s["name"]: s for s in document["spans"]}
    assert set(spans) == {"bench.op", "timing.sta"}
    child, parent = spans["timing.sta"], spans["bench.op"]
    assert child["parent"] == parent["id"] and child["op"] == 1
    assert child["attrs"] == {"flow": "reference"}
    assert child["self_ns"] == child["end_ns"] - child["start_ns"]
    assert parent["self_ns"] == (
        parent["end_ns"] - parent["start_ns"] - child["self_ns"]
    )
