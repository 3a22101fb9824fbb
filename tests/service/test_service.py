"""General service-layer tests: schema validation, scheduling, streams,
residency accounting, the cold baseline, and the CLI entry point.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import repro

from repro.service import (
    AnalysisRequest,
    ArtifactRegistry,
    FaultInjector,
    RequestStatus,
    ResultStream,
    Scheduler,
    ServiceClient,
    ServiceConfig,
    SSTAService,
    run_cold_request,
)
from repro.service.__main__ import main
from repro.service.request import ChunkResult, ServiceResult

from tests.service.conftest import make_active, tiny_config


class TestRequestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(circuit=""),
            dict(circuit="c17", kernel="no-such-kernel"),
            dict(circuit="c17", flow="bogus"),
            dict(circuit="c17", num_samples=0),
            dict(circuit="c17", chunk_size=0),
            dict(circuit="c17", r=0),
            dict(circuit="c17", timeout_s=0.0),
            dict(circuit="c17", quantiles=(0.5, 1.5)),
        ],
    )
    def test_malformed_requests_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisRequest(**kwargs).validate(ServiceConfig())

    def test_batch_key_ignores_size_seed_and_chunking(self):
        base = AnalysisRequest(circuit="c17", r=5)
        peer = AnalysisRequest(
            circuit="c17", r=5, num_samples=9, seed=3, chunk_size=2, priority=7
        )
        other = AnalysisRequest(circuit="c17", r=6)
        assert base.batch_key() == peer.batch_key()
        assert base.batch_key() != other.batch_key()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(engine="no-such-engine"),
            dict(kernels={}),
            dict(num_workers=0),
            dict(max_queue=0),
            dict(max_batch_requests=0),
            dict(stream_buffer_chunks=0),
            dict(kernel_threads=0),
        ],
    )
    def test_malformed_configs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs).validate()

    def test_submit_requires_a_started_service(self):
        service = SSTAService(tiny_config())
        with pytest.raises(RuntimeError):
            service.submit(AnalysisRequest(circuit="c17"))


class TestSchedulerOrdering:
    def _scheduler(self, **overrides):
        config = tiny_config(**overrides)
        faults = FaultInjector()
        return Scheduler(config, ArtifactRegistry(config, faults), faults)

    def test_higher_priority_is_served_first(self):
        scheduler = self._scheduler()
        low = make_active(
            AnalysisRequest(circuit="c17", seed=1, priority=0), "t-low"
        )
        high = make_active(
            AnalysisRequest(circuit="c880", seed=2, priority=5), "t-high"
        )
        scheduler.submit(low)
        scheduler.submit(high)
        first = scheduler.next_batch(wait_timeout_s=0.01)
        assert [a.stream.request_id for a in first] == ["t-high"]
        second = scheduler.next_batch(wait_timeout_s=0.01)
        assert [a.stream.request_id for a in second] == ["t-low"]

    def test_equal_priority_is_fifo(self):
        scheduler = self._scheduler()
        for i in range(3):
            scheduler.submit(
                make_active(
                    AnalysisRequest(circuit="c17", seed=i, r=i + 1),
                    f"t-{i:06d}",
                )
            )
        order = []
        for _ in range(3):
            batch = scheduler.next_batch(wait_timeout_s=0.01)
            order.extend(a.stream.request_id for a in batch)
        assert order == ["t-000000", "t-000001", "t-000002"]

    def test_compatible_requests_coalesce_into_one_batch(self):
        scheduler = self._scheduler()
        for i in range(3):
            scheduler.submit(
                make_active(
                    AnalysisRequest(circuit="c17", seed=i), f"t-same{i}"
                )
            )
        scheduler.submit(
            make_active(AnalysisRequest(circuit="c880", seed=9), "t-other")
        )
        batch = scheduler.next_batch(wait_timeout_s=0.01)
        assert sorted(a.stream.request_id for a in batch) == [
            "t-same0",
            "t-same1",
            "t-same2",
        ]
        rest = scheduler.next_batch(wait_timeout_s=0.01)
        assert [a.stream.request_id for a in rest] == ["t-other"]

    def test_batch_width_is_capped(self):
        scheduler = self._scheduler(max_batch_requests=2)
        for i in range(3):
            scheduler.submit(
                make_active(AnalysisRequest(circuit="c17", seed=i), f"t-{i}")
            )
        assert len(scheduler.next_batch(wait_timeout_s=0.01)) == 2
        assert len(scheduler.next_batch(wait_timeout_s=0.01)) == 1

    def test_empty_queue_times_out_to_none(self):
        assert self._scheduler().next_batch(wait_timeout_s=0.01) is None


class TestResultStream:
    def _chunk(self, index):
        return ChunkResult(
            request_id="t-0",
            index=index,
            start=index,
            num_samples=1,
            worst_delay=np.asarray([float(index)]),
        )

    def test_offer_then_finish_round_trips(self):
        stream = ResultStream(AnalysisRequest(circuit="c17"), "t-0")
        assert stream.offer(self._chunk(0))
        stream.finish(
            ServiceResult(request_id="t-0", status=RequestStatus.DONE)
        )
        chunks = list(stream.chunks(timeout_s=1.0))
        assert [c.index for c in chunks] == [0]
        assert stream.result(timeout_s=1.0).ok
        assert stream.status() is RequestStatus.DONE

    def test_result_timeout_raises(self):
        stream = ResultStream(AnalysisRequest(circuit="c17"), "t-0")
        with pytest.raises(TimeoutError):
            stream.result(timeout_s=0.01)
        with pytest.raises(TimeoutError):
            next(iter(stream.chunks(timeout_s=0.01)))

    def test_cancel_is_idempotent_and_rejects_offers(self):
        stream = ResultStream(AnalysisRequest(circuit="c17"), "t-0")
        stream.cancel("gone")
        stream.cancel("still gone")
        assert stream.cancel_reason == "gone"
        assert stream.status() is RequestStatus.CANCELLED
        assert not stream.offer(self._chunk(0))
        assert list(stream.chunks(timeout_s=0.5)) == []

    def test_full_buffer_auto_cancels_after_put_timeout(self):
        stream = ResultStream(
            AnalysisRequest(circuit="c17"),
            "t-0",
            buffer_chunks=1,
            put_timeout_s=0.05,
        )
        assert stream.offer(self._chunk(0))
        assert not stream.offer(self._chunk(1))
        assert stream.cancelled
        assert "failed to drain" in (stream.cancel_reason or "")


class TestResidency:
    def test_stats_track_hits_misses_and_resident_bytes(self):
        service = SSTAService(tiny_config())
        with service:
            service.warm_up("c17")
            stats = service.stats()
            assert stats["misses"] > 0
            assert stats["resident"]["harnesses"] == 1
            assert stats["resident_bytes"] > 0
            assert stats["quarantined"] == {}
            assert stats["queue_depth"] == 0
            assert stats["running"] is True
            before_hits = stats["hits"]
            service.warm_up("c17")
            assert service.stats()["hits"] > before_hits
        assert service.stats()["running"] is False

    def test_kernel_threads_pin_reaches_engine_and_stats(self):
        service = SSTAService(tiny_config(kernel_threads=2))
        with service:
            harness = service.warm_up("c17")
            assert harness.engine.native_threads == 2
            stats = service.stats()
            assert stats["kernel_threads"] == 2
            # resident_bytes must account the per-thread native scratch a
            # sweep allocates at the pinned lane count, on top of the
            # program's arenas and the resident KLE eigenpair arrays.
            program = harness.engine.program
            kle = next(iter(harness.kles.values()))
            assert stats["resident_bytes"] == (
                program.resident_bytes()
                + program.native_scratch_bytes(2)
                + kle.eigenvalues.nbytes
                + kle.d_vectors.nbytes
            )
            assert program.native_scratch_bytes(2) > 0

    def test_randomized_kle_method_reaches_residency(self, monkeypatch):
        import numpy as np

        from repro.core import galerkin
        from repro.service import ArtifactRegistry
        from repro.solvers import solve_randomized_kle

        config = tiny_config()
        assert ArtifactRegistry(config).stats()["kle_method"] == "dense"
        # Above the size switch the resident KLE is the randomized solve.
        monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", 64)
        registry = ArtifactRegistry(config)
        resident = registry.kle("gaussian")
        expected, _ = solve_randomized_kle(
            config.kernels["gaussian"],
            registry.mesh(),
            config.num_eigenpairs,
        )
        np.testing.assert_array_equal(resident.eigenvalues, expected.eigenvalues)
        np.testing.assert_array_equal(resident.d_vectors, expected.d_vectors)
        stats = registry.stats()
        assert stats["kle_method"] == "randomized"
        assert stats["resident_bytes"] >= (
            resident.eigenvalues.nbytes + resident.d_vectors.nbytes
        )

    def test_same_key_requests_reuse_one_resident_harness(self):
        service = SSTAService(tiny_config())
        with service:
            client = ServiceClient(service)
            for seed in (1, 2):
                assert client.analyze(
                    AnalysisRequest(circuit="c17", num_samples=8, seed=seed),
                    timeout_s=60.0,
                ).ok
            assert service.stats()["resident"]["harnesses"] == 1

    def test_analyze_async_returns_a_live_stream(self):
        service = SSTAService(tiny_config())
        with service:
            stream = ServiceClient(service).analyze_async(
                AnalysisRequest(circuit="c17", num_samples=8, seed=3)
            )
            assert stream.result(timeout_s=60.0).ok


class TestColdPath:
    def test_cold_request_is_bitwise_equal_to_warm_service(self):
        config = tiny_config()
        request = AnalysisRequest(circuit="c17", num_samples=32, seed=11)
        cold = run_cold_request(request, config)
        assert cold.ok
        with SSTAService(config) as service:
            warm = ServiceClient(service).analyze(request, timeout_s=60.0)
        assert warm.ok
        assert np.array_equal(cold.sta.worst_delay, warm.sta.worst_delay)

    def test_warm_service_beats_cold_process_per_request_5x(self):
        """A warmed daemon serves c880 at N = 512 at least 5x faster than
        the process-per-request baseline, a fresh ``python -m
        repro.service once`` interpreter per request.  The gate compares
        medians; warm p99 must also stay under 2 s."""
        circuit, num_samples, base_seed = "c880", 512, 20080310
        with SSTAService(ServiceConfig()) as service:
            service.warm_up(circuit)
            client = ServiceClient(service)
            # One throwaway request flushes any residual lazy setup.
            client.analyze(
                AnalysisRequest(
                    circuit=circuit, num_samples=32, seed=base_seed - 1
                )
            )
            warm = []
            for i in range(8):
                request = AnalysisRequest(
                    circuit=circuit,
                    num_samples=num_samples,
                    seed=base_seed + i,
                )
                started = time.perf_counter()
                result = client.analyze(request, timeout_s=600.0)
                warm.append(time.perf_counter() - started)
                assert result.ok, result.error
            stats = service.stats()
        assert stats["resident_bytes"] > 0
        assert stats["hits"] > stats["misses"]

        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        cold = []
        for i in range(2):
            command = [
                sys.executable,
                "-m",
                "repro.service",
                "once",
                "--circuit",
                circuit,
                "--num-samples",
                str(num_samples),
                "--seed",
                str(base_seed + i),
            ]
            started = time.perf_counter()
            completed = subprocess.run(
                command, env=env, capture_output=True, text=True
            )
            cold.append(time.perf_counter() - started)
            assert completed.returncode == 0, completed.stderr[-2000:]

        speedup = statistics.median(cold) / statistics.median(warm)
        assert speedup >= 5.0, (
            f"warm service only {speedup:.2f}x faster than a cold process "
            f"(warm median {1e3 * statistics.median(warm):.1f} ms, "
            f"cold median {1e3 * statistics.median(cold):.1f} ms)"
        )
        warm_p99_ms = float(np.percentile(np.array(warm) * 1e3, 99))
        assert warm_p99_ms <= 2000.0

    def test_cold_chunked_request_completes_without_a_consumer(self):
        # Regression guard: the cold path buffers the whole stream up
        # front, so a many-chunk request cannot deadlock on backpressure.
        config = tiny_config(stream_buffer_chunks=2, stream_put_timeout_s=0.2)
        result = run_cold_request(
            AnalysisRequest(
                circuit="c17", num_samples=64, seed=12, chunk_size=4
            ),
            config,
        )
        assert result.ok
        assert result.num_samples == 64


class TestCli:
    def test_once_serves_a_request_and_prints_json(self, capsys):
        rc = main(
            [
                "once",
                "--circuit",
                "c17",
                "--num-samples",
                "8",
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["status"] == "done"
        assert payload["num_samples"] == 8
        assert np.isfinite(payload["mean_worst_delay_ps"])
