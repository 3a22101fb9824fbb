"""The multithreaded native kernel: env contract, fallbacks, determinism.

Three layers are pinned here.  The *environment contract*:
``REPRO_NATIVE_THREADS`` parses as documented (unset → serial, ``auto``
→ all cores, garbage → a typed error rather than a silent serial run).
The *capability probe*: ``REPRO_NATIVE_THREAD_BACKEND`` pins each
backend, and the ``none`` backend still exports a working entry point
(sequential lane sweep).  The *determinism gate*: the central
claim that thread count never changes a single bit of output — compiled
runs at 1, 2 and 3 workers over an odd sample count must be
``np.array_equal``, not merely close.
"""

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def engine():
    netlist = load_circuit("c880")
    placement = place_netlist(netlist, DIE, seed=7)
    return STAEngine(netlist, placement)


def _samples(engine, num_samples, seed=3):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal((num_samples, engine.netlist.num_gates))
        * 0.1
        for name in STATISTICAL_PARAMETERS
    }


# ----------------------------------------------------------------------
# REPRO_NATIVE_THREADS parsing.
# ----------------------------------------------------------------------
class TestThreadCountEnv:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        assert native.native_thread_count() == 1

    def test_blank_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "   ")
        assert native.native_thread_count() == 1

    @pytest.mark.parametrize("raw", ["1", "2", "7"])
    def test_positive_integer_is_taken_literally(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        assert native.native_thread_count() == int(raw)

    @pytest.mark.parametrize("raw", ["auto", "AUTO", "0"])
    def test_auto_means_all_cores(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        count = native.native_thread_count()
        assert count >= 1

    @pytest.mark.parametrize("raw", ["garbage", "2.5", "-3", "1e2"])
    def test_garbage_raises_typed_error(self, monkeypatch, raw):
        # A typo silently running serial would invalidate any
        # thread-scaling measurement, so the contract is a loud error.
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        with pytest.raises(ValueError, match="invalid REPRO_NATIVE_THREADS"):
            native.native_thread_count()

    def test_resolve_prefers_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "7")
        assert native.resolve_thread_count(3) == 3
        assert native.resolve_thread_count(None) == 7

    def test_resolve_rejects_nonpositive_explicit(self):
        with pytest.raises(ValueError, match="native_threads must be >= 1"):
            native.resolve_thread_count(0)

    def test_engine_constructor_rejects_nonpositive(self, engine):
        with pytest.raises(ValueError):
            STAEngine(
                engine.netlist, engine.placement, native_threads=0
            )


# ----------------------------------------------------------------------
# Backend probe and pinning.
# ----------------------------------------------------------------------
class TestThreadBackend:
    def test_probed_backend_is_a_known_name(self):
        assert native.thread_backend() in ("openmp", "pthreads", "none")

    @pytest.mark.parametrize("backend", ["openmp", "pthreads", "none"])
    def test_pin_overrides_probe(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", backend)
        assert native.thread_backend() == backend

    def test_unknown_pin_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "cuda")
        with pytest.raises(
            ValueError, match="unknown REPRO_NATIVE_THREAD_BACKEND"
        ):
            native.thread_backend()

    def test_backend_flags_match_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "none")
        assert native.thread_backend_flags() == []
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "openmp")
        assert native.thread_backend_flags() == ["-fopenmp"]

    def test_build_info_reports_threading(self):
        info = native.kernel_build_info()
        assert info["thread_backend"] in ("openmp", "pthreads", "none")
        assert info["threads"] >= 1


# ----------------------------------------------------------------------
# Bitwise determinism across thread counts.
# ----------------------------------------------------------------------
class TestBitwiseDeterminism:
    # 257 is odd and prime: every multi-thread partition of the lanes is
    # uneven, which is exactly the case a reduction-order bug would show
    # up in.
    NUM_SAMPLES = 257

    def _run(self, engine, samples, threads, **kwargs):
        return engine.run(
            samples, engine="compiled", native_threads=threads, **kwargs
        )

    def test_threads_never_change_a_bit(self, engine):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, self.NUM_SAMPLES)
        base = self._run(engine, samples, 1)
        for threads in (2, 3):
            run = self._run(engine, samples, threads)
            assert np.array_equal(base.worst_delay, run.worst_delay)
            assert set(run.end_arrivals) == set(base.end_arrivals)
            for net, values in base.end_arrivals.items():
                assert np.array_equal(run.end_arrivals[net], values)

    def test_more_threads_than_lanes_is_bitwise_too(self, engine):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, 3)
        base = self._run(engine, samples, 1)
        wide = self._run(engine, samples, 8)
        assert np.array_equal(base.worst_delay, wide.worst_delay)

    def test_none_backend_mt_entry_is_bitwise(self, engine, monkeypatch):
        # Toolchains without OpenMP or pthreads still get a working
        # entry point: the sequential lane-range sweep.
        monkeypatch.setenv("REPRO_NATIVE_THREAD_BACKEND", "none")
        monkeypatch.setattr(native, "_cached", None)
        monkeypatch.setattr(native, "_cached_key", None)
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, 65)
        base = self._run(engine, samples, 1)
        run = self._run(engine, samples, 3)
        assert np.array_equal(base.worst_delay, run.worst_delay)

    def test_env_and_api_paths_agree(self, engine, monkeypatch):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, 65)
        explicit = self._run(engine, samples, 2)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        via_env = engine.run(samples, engine="compiled")
        assert np.array_equal(explicit.worst_delay, via_env.worst_delay)

    def test_chunked_threaded_run_is_bitwise(self, engine):
        if native.load_kernel() is None:
            pytest.skip("native kernel unavailable")
        samples = _samples(engine, 101)
        base = self._run(engine, samples, 1)
        chunked = self._run(engine, samples, 3, chunk_size=17)
        assert np.array_equal(base.worst_delay, chunked.worst_delay)

    def test_no_native_falls_back_cleanly(self, engine, monkeypatch):
        # REPRO_NO_NATIVE disables the kernel entirely; a threaded
        # request then runs the reference loop, bit for bit, and the
        # kernel's numbers match it to reassociation error.
        samples = _samples(engine, 33)
        base = self._run(engine, samples, 1)
        reference = engine.run(samples, engine="reference")
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(native, "_cached", None)
        monkeypatch.setattr(native, "_cached_key", None)
        fallback = self._run(engine, samples, 4)
        assert engine.program.last_run_native is False
        assert np.array_equal(fallback.worst_delay, reference.worst_delay)
        np.testing.assert_allclose(
            fallback.worst_delay, base.worst_delay, rtol=1e-12, atol=1e-9
        )


# ----------------------------------------------------------------------
# Block-size heuristic.
# ----------------------------------------------------------------------
class TestBlockSizing:
    def test_budget_is_divided_by_thread_count(self, engine):
        program = engine.program
        width = program.num_slots
        serial = program._native_block_size(10**9, width, 1)
        halved = program._native_block_size(10**9, width, 2)
        assert halved < serial
        assert program._native_block_size(10**9, width, 4) < halved

    def test_block_size_is_pinned_for_known_inputs(self, engine):
        # Regression pin: the exact heuristic output for c880's packed
        # models.  A budget or per-sample accounting change must show up
        # here as a deliberate diff, not drift silently.
        program = engine.program
        num_gates = program.num_model_gates
        width = program.num_slots
        for threads in (1, 2, 3):
            per_sample = 8 * (2 * num_gates + 2 * width + 6 * threads + 4)
            budget = (12 * 1024 * 1024) // threads
            expected = max(32, min(10**9, budget // per_sample))
            assert (
                program._native_block_size(10**9, width, threads) == expected
            )

    def test_small_sample_counts_are_not_padded(self, engine):
        program = engine.program
        assert program._native_block_size(40, program.num_slots, 2) == 40

    def test_floor_is_32_lanes(self, engine):
        program = engine.program
        # Even an absurd thread count cannot starve a block below the
        # vectorization floor.
        assert program._native_block_size(10**9, program.num_slots, 10**6) == 32

    def test_scratch_bytes_grow_with_per_thread_blocks(self, engine):
        program = engine.program
        for threads in (1, 2, 4):
            expected_block = program._native_block_size(
                12 * 1024 * 1024, program.num_slots, threads
            )
            per_block = (
                2 * program.num_slots
                + 6 * threads
                + 2 * program.num_model_gates
            )
            assert (
                program.native_scratch_bytes(threads)
                == 8 * expected_block * per_block
            )
