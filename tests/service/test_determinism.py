"""Determinism suite: service answers are bitwise-identical to serial runs.

The service's contract (ISSUE 6, satellite 1): a request's result is a
pure function of its request tuple — concurrent interleaved submission,
fusion into a shared sweep, and chunk-boundary splits must all produce
results bitwise identical to the same request run serially through
:class:`~repro.timing.ssta.MonteCarloSSTA`.
"""

from __future__ import annotations

import numpy as np

from repro.service import AnalysisRequest
from repro.service.batcher import execute_batch
from repro.service.faults import FaultInjector
from repro.service.request import RequestStatus
from repro.service.server import SSTAService
from repro.utils.rng import as_generator

from tests.service.conftest import CIRCUIT, R, make_active, tiny_config


def _assert_sta_bitwise(service_sta, serial_sta):
    """Exact (bitwise) equality of two full STA results."""
    assert np.array_equal(service_sta.worst_delay, serial_sta.worst_delay)
    assert set(service_sta.end_arrivals) == set(serial_sta.end_arrivals)
    for net, values in serial_sta.end_arrivals.items():
        assert np.array_equal(service_sta.end_arrivals[net], values)


class TestConcurrentInterleaved:
    def test_concurrent_unchunked_requests_match_serial_bitwise(
        self, service, c880_harness
    ):
        seeds = [1101, 1102, 1103, 1104]
        streams = [
            service.submit(
                AnalysisRequest(
                    circuit=CIRCUIT, r=R, num_samples=96, seed=seed
                )
            )
            for seed in seeds
        ]
        results = [stream.result(timeout_s=120.0) for stream in streams]
        for seed, result in zip(seeds, results):
            assert result.ok, result.error
            serial = c880_harness.run_kle(96, seed=seed)
            _assert_sta_bitwise(result.sta, serial.sta)

    def test_interleaved_mixed_flows_and_circuits_match_serial(
        self, service, c880_harness
    ):
        # Interleave incompatible batch keys: kle vs reference flow on
        # c880, plus a different circuit entirely.  Each must still be a
        # pure function of its own request tuple.
        c17_harness = service.warm_up("c17")
        submissions = [
            AnalysisRequest(circuit=CIRCUIT, r=R, num_samples=48, seed=21),
            AnalysisRequest(
                circuit=CIRCUIT, r=R, num_samples=48, seed=21, flow="reference"
            ),
            AnalysisRequest(circuit="c17", num_samples=64, seed=5),
            AnalysisRequest(circuit=CIRCUIT, r=R, num_samples=32, seed=22),
        ]
        streams = [service.submit(request) for request in submissions]
        results = [stream.result(timeout_s=120.0) for stream in streams]
        assert all(result.ok for result in results)
        expected = [
            c880_harness.run_kle(48, seed=21),
            c880_harness.run_reference(48, seed=21),
            c17_harness.run_kle(64, seed=5),
            c880_harness.run_kle(32, seed=22),
        ]
        for result, serial in zip(results, expected):
            _assert_sta_bitwise(result.sta, serial.sta)

    def test_streamed_chunks_carry_the_serial_sample_rows(
        self, service, c880_harness
    ):
        # include_samples=True attaches per-end-point rows to each chunk;
        # concatenated across the stream they must equal the serial run's
        # arrays exactly.
        stream = service.submit(
            AnalysisRequest(
                circuit=CIRCUIT,
                r=R,
                num_samples=40,
                seed=77,
                include_samples=True,
            )
        )
        chunks = list(stream.chunks(timeout_s=120.0))
        result = stream.result(timeout_s=120.0)
        assert result.ok
        assert sum(chunk.num_samples for chunk in chunks) == 40
        serial = c880_harness.run_kle(40, seed=77)
        worst = np.concatenate([chunk.worst_delay for chunk in chunks])
        assert np.array_equal(worst, serial.sta.worst_delay)
        for net, values in serial.sta.end_arrivals.items():
            streamed = np.concatenate(
                [chunk.end_arrivals[net] for chunk in chunks]
            )
            assert np.array_equal(streamed, values)


class TestSharedSweepBatching:
    def test_fused_batch_is_bitwise_equal_to_serial_runs(self, c880_harness):
        # Deterministic batching: drive the batcher directly so all four
        # requests are guaranteed to share the sweeps.
        specs = [(64, 501), (96, 502), (32, 503), (80, 504)]
        actives = [
            make_active(
                AnalysisRequest(
                    circuit=CIRCUIT, r=R, num_samples=n, seed=seed
                ),
                f"t-{i:06d}",
            )
            for i, (n, seed) in enumerate(specs)
        ]
        execute_batch(actives, c880_harness, FaultInjector())
        for active, (n, seed) in zip(actives, specs):
            result = active.stream.result(timeout_s=0.0)
            assert result.ok
            assert result.batch_size == 4
            serial = c880_harness.run_kle(n, seed=seed)
            _assert_sta_bitwise(result.sta, serial.sta)

    def test_forced_service_level_batch_matches_serial(
        self, service_config, c880_harness
    ):
        # End to end with one worker: a long-running blocker with an
        # incompatible batch key occupies the only worker while four
        # compatible requests queue up, so the next pop coalesces all
        # four into one shared sweep.
        config = tiny_config(
            mesh_divisions=service_config.mesh_divisions,
            num_eigenpairs=service_config.num_eigenpairs,
            num_workers=1,
        )
        with SSTAService(config) as svc:
            harness = svc.warm_up(CIRCUIT, "gaussian", R)
            svc.warm_up(CIRCUIT, "gaussian", None)
            blocker = svc.submit(
                AnalysisRequest(circuit=CIRCUIT, num_samples=2048, seed=9)
            )
            seeds = [601, 602, 603, 604]
            streams = [
                svc.submit(
                    AnalysisRequest(
                        circuit=CIRCUIT, r=R, num_samples=64, seed=seed
                    )
                )
                for seed in seeds
            ]
            results = [stream.result(timeout_s=120.0) for stream in streams]
            assert blocker.result(timeout_s=120.0).ok
        for seed, result in zip(seeds, results):
            assert result.ok
            assert result.batch_size == 4
            serial = harness.run_kle(64, seed=seed)
            _assert_sta_bitwise(result.sta, serial.sta)

    def test_batch_composition_does_not_change_a_chunked_stream(
        self, c880_harness
    ):
        # The same chunked request run alone and fused with a peer of a
        # different size/chunking must emit the identical chunk rows and
        # identical streaming statistics.
        def chunked_request():
            return AnalysisRequest(
                circuit=CIRCUIT,
                r=R,
                num_samples=90,
                seed=314,
                chunk_size=13,
                quantiles=(0.5, 0.9),
            )

        alone = make_active(chunked_request(), "t-alone0")
        execute_batch([alone], c880_harness, FaultInjector())

        fused = make_active(chunked_request(), "t-fused0")
        peer = make_active(
            AnalysisRequest(
                circuit=CIRCUIT, r=R, num_samples=50, seed=999, chunk_size=20
            ),
            "t-peer00",
        )
        execute_batch([fused, peer], c880_harness, FaultInjector())

        rows_alone = [c.worst_delay for c in alone.stream.chunks(0.1)]
        rows_fused = [c.worst_delay for c in fused.stream.chunks(0.1)]
        assert len(rows_alone) == len(rows_fused) == 7  # ceil(90 / 13)
        for left, right in zip(rows_alone, rows_fused):
            assert np.array_equal(left, right)

        sta_alone = alone.stream.result(timeout_s=0.0).sta
        sta_fused = fused.stream.result(timeout_s=0.0).sta
        assert sta_alone.mean_worst_delay() == sta_fused.mean_worst_delay()
        assert sta_alone.std_worst_delay() == sta_fused.std_worst_delay()
        assert sta_alone.quantile_worst_delay(
            0.9
        ) == sta_fused.quantile_worst_delay(0.9)
        assert peer.stream.result(timeout_s=0.0).ok


class TestChunkBoundaries:
    def test_chunked_request_matches_serial_chunked_run(
        self, service, c880_harness
    ):
        # N=90 over chunk_size=13 exercises a ragged final chunk; the
        # streaming statistics must be bitwise those of the serial
        # chunked flow (same generator threading, same merge order).
        stream = service.submit(
            AnalysisRequest(
                circuit=CIRCUIT,
                r=R,
                num_samples=90,
                seed=2718,
                chunk_size=13,
                quantiles=(0.5, 0.9),
            )
        )
        result = stream.result(timeout_s=120.0)
        assert result.ok
        serial = c880_harness.run_kle(
            90, seed=2718, chunk_size=13, quantiles=(0.5, 0.9)
        )
        assert result.sta.mean_worst_delay() == serial.sta.mean_worst_delay()
        assert result.sta.std_worst_delay() == serial.sta.std_worst_delay()
        for q in (0.5, 0.9):
            assert result.sta.quantile_worst_delay(
                q
            ) == serial.sta.quantile_worst_delay(q)
        assert result.sta.output_mean() == serial.sta.output_mean()
        assert result.sta.output_sigma() == serial.sta.output_sigma()

    def test_chunk_rows_equal_a_manual_serial_chunk_loop(self, c880_harness):
        # Reconstruct the serial chunked flow by hand: one persistent
        # generator threaded through per-chunk generate() calls.  The
        # service's chunk stream must reproduce those rows exactly.
        seed, total, chunk = 424242, 70, 16
        active = make_active(
            AnalysisRequest(
                circuit=CIRCUIT,
                r=R,
                num_samples=total,
                seed=seed,
                chunk_size=chunk,
            ),
            "t-manual",
        )
        execute_batch([active], c880_harness, FaultInjector())
        streamed = [c.worst_delay for c in active.stream.chunks(0.1)]

        rng = as_generator(seed)
        produced = 0
        expected = []
        while produced < total:
            rows = min(chunk, total - produced)
            generated = c880_harness.kle_generator.generate(
                c880_harness.gate_locations, rows, seed=rng
            )
            sta = c880_harness.engine.run(generated.samples)
            expected.append(sta.worst_delay)
            produced += rows
        assert len(streamed) == len(expected)
        for left, right in zip(streamed, expected):
            assert np.array_equal(left, right)

    def test_unchunked_when_n_fits_one_chunk(self, service, c880_harness):
        # N <= chunk_size takes the one-shot exact path, same as serial.
        stream = service.submit(
            AnalysisRequest(
                circuit=CIRCUIT, r=R, num_samples=24, seed=55, chunk_size=64
            )
        )
        result = stream.result(timeout_s=120.0)
        assert result.ok
        serial = c880_harness.run_kle(24, seed=55, chunk_size=64)
        _assert_sta_bitwise(result.sta, serial.sta)


class TestSeedPolicy:
    def test_seedless_requests_are_independent(self, service):
        streams = [
            service.submit(AnalysisRequest(circuit="c17", num_samples=32))
            for _ in range(2)
        ]
        first, second = [s.result(timeout_s=120.0) for s in streams]
        assert first.ok and second.ok
        assert not np.array_equal(
            first.sta.worst_delay, second.sta.worst_delay
        )

    def test_root_seed_makes_seedless_requests_reproducible(self):
        def run_two(config):
            with SSTAService(config) as svc:
                svc.warm_up("c17")
                streams = [
                    svc.submit(AnalysisRequest(circuit="c17", num_samples=32))
                    for _ in range(2)
                ]
                return [s.result(timeout_s=120.0) for s in streams]

        first = run_two(tiny_config(root_seed=7))
        second = run_two(tiny_config(root_seed=7))
        assert all(r.status is RequestStatus.DONE for r in first + second)
        for left, right in zip(first, second):
            assert np.array_equal(
                left.sta.worst_delay, right.sta.worst_delay
            )
        assert not np.array_equal(
            first[0].sta.worst_delay, first[1].sta.worst_delay
        )
