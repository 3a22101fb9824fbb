"""Fault-injection suite: every failure degrades gracefully.

ISSUE 6, satellite 2: client disconnect mid-stream, a poisoned artifact
cache entry during warm-up (the ``*.corrupt`` quarantine from PR 1),
kernel build failure mid-request, and queue-full rejection — in every
case the queue must keep serving subsequent requests.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.service import (
    AnalysisRequest,
    ArtifactBuildError,
    ArtifactRegistry,
    FaultInjector,
    InjectedFault,
    QueueFullError,
    Scheduler,
    SSTAService,
)
from repro.service.request import RequestStatus

from tests.service.conftest import make_active, tiny_config


def _tiny_service(**overrides):
    faults = FaultInjector()
    return SSTAService(tiny_config(**overrides), faults=faults), faults


class TestClientDisconnect:
    def test_disconnect_mid_stream_cancels_and_queue_keeps_serving(self):
        service, _ = _tiny_service(stream_buffer_chunks=4)
        with service:
            service.warm_up("c17")
            stream = service.submit(
                AnalysisRequest(
                    circuit="c17", num_samples=128, seed=1, chunk_size=8
                )
            )
            first = next(iter(stream.chunks(timeout_s=60.0)))
            assert first.num_samples == 8
            stream.cancel("client went away")
            result = stream.result(timeout_s=60.0)
            assert result.status is RequestStatus.CANCELLED
            assert result.sta is None
            assert "client went away" in (result.error or "")
            # The worker survived the disconnect: a follow-up request on
            # the same service completes normally.
            follow_up = service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=2)
            ).result(timeout_s=60.0)
            assert follow_up.ok

    def test_slow_consumer_is_auto_cancelled_not_wedged(self):
        # A consumer that never drains: the bounded buffer fills, the
        # producer's put times out, and the stream is cancelled with a
        # recorded reason instead of blocking the worker forever.
        service, _ = _tiny_service(
            stream_buffer_chunks=1, stream_put_timeout_s=0.2
        )
        with service:
            service.warm_up("c17")
            stream = service.submit(
                AnalysisRequest(
                    circuit="c17", num_samples=64, seed=3, chunk_size=4
                )
            )
            result = stream.result(timeout_s=60.0)
            assert result.status is RequestStatus.CANCELLED
            assert "failed to drain" in (result.error or "")
            assert service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=4)
            ).result(timeout_s=60.0).ok


class TestPoisonedCache:
    def test_corrupt_kle_cache_entry_is_quarantined_on_warm_up(self, tmp_path):
        # First service populates the on-disk KLE cache...
        config = tiny_config(cache_directory=str(tmp_path))
        ArtifactRegistry(config).warm_up("c17")
        cache_files = list(tmp_path.rglob("*.npz"))
        assert cache_files
        # ...which we then poison byte-wise.
        for path in cache_files:
            path.write_bytes(b"\x00garbage, not an npz\xff" * 16)
        # A fresh service warm-up must quarantine the poisoned entries
        # (the PR-1 `*.corrupt` contract) and still come up serving.
        service = SSTAService(config)
        with service:
            service.warm_up("c17")
            corrupt = list(tmp_path.rglob("*.corrupt"))
            assert corrupt, "poisoned cache entry was not quarantined"
            result = service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=5)
            ).result(timeout_s=60.0)
            assert result.ok


class TestKernelBuildFailure:
    def test_warm_kle_failure_falls_back_cold_and_serves(self):
        service, faults = _tiny_service()
        faults.arm("kle", times=1)
        with service:
            result = service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=6)
            ).result(timeout_s=60.0)
            assert result.ok
            assert faults.fired("kle") == 1
            assert "kle:gaussian" in service.registry.quarantined()

    def test_cold_kle_failure_fails_request_but_not_the_queue(self):
        service, faults = _tiny_service()
        faults.arm("kle", times=2)  # warm AND cold fallback both die
        with service:
            failed = service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=7)
            ).result(timeout_s=60.0)
            assert failed.status is RequestStatus.FAILED
            assert "ArtifactBuildError" in (failed.error or "")
            assert faults.fired("kle") == 2
            # Injector is spent; the very next request must succeed on
            # the same (previously failing) artifact key.
            recovered = service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=8)
            ).result(timeout_s=60.0)
            assert recovered.ok

    def test_cold_failure_surfaces_a_typed_error_at_the_registry(self):
        faults = FaultInjector()
        registry = ArtifactRegistry(tiny_config(), faults)
        faults.arm("kle", times=2)
        with pytest.raises(ArtifactBuildError):
            registry.kle("gaussian")
        # One cold retry later the artifact builds and stays resident.
        solved = registry.kle("gaussian")
        assert solved is registry.kle("gaussian")

    def test_sweep_failure_is_contained_to_its_batch(self):
        service, faults = _tiny_service()
        with service:
            service.warm_up("c17")
            faults.arm("sweep", times=1)
            failed = service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=9)
            ).result(timeout_s=60.0)
            assert failed.status is RequestStatus.FAILED
            assert "sweep failed" in (failed.error or "")
            assert service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=10)
            ).result(timeout_s=60.0).ok

    def test_generation_failure_is_contained_to_its_batch(self, monkeypatch):
        # One worker: if a sample-generation error escaped the batch, it
        # would kill the only worker and the follow-up would never run.
        service, _ = _tiny_service(num_workers=1)
        with service:
            generator = service.warm_up("c17").kle_generator
            real_generate = generator.generate
            calls = []

            def generate_once_failing(*args, **kwargs):
                calls.append(None)
                if len(calls) == 1:
                    raise MemoryError("injected generation failure")
                return real_generate(*args, **kwargs)

            monkeypatch.setattr(generator, "generate", generate_once_failing)
            failed = service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=11)
            ).result(timeout_s=20.0)
            assert failed.status is RequestStatus.FAILED
            assert "MemoryError" in (failed.error or "")
            assert service.submit(
                AnalysisRequest(circuit="c17", num_samples=16, seed=12)
            ).result(timeout_s=20.0).ok


class TestAdmissionBackpressure:
    def test_queue_full_rejects_then_drains_once_started(self):
        config = tiny_config(max_queue=2)
        faults = FaultInjector()
        registry = ArtifactRegistry(config, faults)
        scheduler = Scheduler(config, registry, faults)
        actives = [
            make_active(
                AnalysisRequest(circuit="c17", num_samples=8, seed=20 + i),
                f"t-{i:06d}",
            )
            for i in range(3)
        ]
        scheduler.submit(actives[0])
        scheduler.submit(actives[1])
        with pytest.raises(QueueFullError):
            scheduler.submit(actives[2])
        assert scheduler.queue_depth() == 2
        # Backpressure was admission-only: starting the workers drains
        # the admitted requests to completion.
        scheduler.start()
        try:
            for active in actives[:2]:
                assert active.stream.result(timeout_s=60.0).ok
        finally:
            scheduler.stop()
        assert not scheduler.running

    def test_queue_wait_timeout_is_terminal_before_any_sweep(self):
        config = tiny_config()
        faults = FaultInjector()
        scheduler = Scheduler(config, ArtifactRegistry(config, faults), faults)
        expired = make_active(
            AnalysisRequest(
                circuit="c17", num_samples=8, seed=30, timeout_s=0.01
            ),
            deadline=time.monotonic() + 0.01,
        )
        scheduler.submit(expired)
        time.sleep(0.05)
        assert scheduler.next_batch(wait_timeout_s=0.01) is None
        result = expired.stream.result(timeout_s=1.0)
        assert result.status is RequestStatus.TIMED_OUT
        assert "admission queue" in (result.error or "")

    def test_stop_fails_queued_requests_with_a_reason(self):
        config = tiny_config()
        faults = FaultInjector()
        scheduler = Scheduler(config, ArtifactRegistry(config, faults), faults)
        active = make_active(
            AnalysisRequest(circuit="c17", num_samples=8, seed=31)
        )
        scheduler.submit(active)
        scheduler.stop()
        result = active.stream.result(timeout_s=1.0)
        assert result.status is RequestStatus.FAILED
        assert "service stopped" in (result.error or "")
        with pytest.raises(RuntimeError):
            scheduler.submit(active)


class TestFaultInjector:
    def test_unknown_stage_and_bad_count_are_rejected(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.arm("no-such-stage")
        with pytest.raises(ValueError):
            faults.arm("kle", times=0)

    def test_fire_consumes_exactly_the_armed_count(self):
        faults = FaultInjector()
        faults.arm("sweep", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.fire("sweep")
        faults.fire("sweep")  # disarmed: no-op
        assert faults.fired("sweep") == 2

    def test_clear_disarms_but_keeps_counters(self):
        faults = FaultInjector()
        faults.arm("netlist", times=5)
        with pytest.raises(InjectedFault):
            faults.fire("netlist")
        faults.clear()
        faults.fire("netlist")
        assert faults.fired("netlist") == 1


def test_determinism_survives_a_faulty_neighbour(service, c880_harness):
    # A cancelled peer in the same shared sweep must not perturb the
    # surviving request's sample stream (generation-order independence).
    from repro.service.batcher import execute_batch

    victim = make_active(
        AnalysisRequest(
            circuit="c880", r=10, num_samples=60, seed=888, chunk_size=15
        ),
        "t-victim",
    )
    doomed = make_active(
        AnalysisRequest(
            circuit="c880", r=10, num_samples=60, seed=889, chunk_size=15
        ),
        "t-doomed",
    )
    doomed.stream.cancel("simulated disconnect")
    execute_batch([victim, doomed], c880_harness, FaultInjector())
    assert (
        doomed.stream.result(timeout_s=0.0).status is RequestStatus.CANCELLED
    )
    survivor = victim.stream.result(timeout_s=0.0)
    assert survivor.ok
    serial = c880_harness.run_kle(60, seed=888, chunk_size=15)
    rows = np.concatenate([c.worst_delay for c in victim.stream.chunks(0.1)])
    assert rows.shape == (60,)
    assert survivor.sta.mean_worst_delay() == serial.sta.mean_worst_delay()
    assert survivor.sta.std_worst_delay() == serial.sta.std_worst_delay()
