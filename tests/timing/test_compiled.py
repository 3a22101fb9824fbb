"""Differential tests: compiled STA engine vs the per-gate reference.

The compiled engine (the native kernel) must reproduce the reference
engine to floating-point reassociation error — ``rtol=1e-12`` — across
circuits, analysis modes (nominal, statistical, wire R/C,
``keep_all_arrivals``, DFF-sourced nets) and sample chunkings, and
chunked compiled runs must be *bitwise* identical to unchunked ones.
Without the kernel, ``engine="compiled"`` runs the reference loop.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.experiments.table1 import default_table1_circuits
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)


def _samples(netlist, num_samples, seed=3):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal((num_samples, netlist.num_gates)) * 0.1
        for name in STATISTICAL_PARAMETERS
    }


def _wire_scales(engine, num_samples, keys, seed=4):
    rng = np.random.default_rng(seed)
    num_nets = len(engine.net_order())
    return {
        key: np.clip(
            1.0 + 0.1 * rng.standard_normal((num_samples, num_nets)),
            0.05,
            None,
        )
        for key in keys
    }


def _assert_matches(compiled, reference):
    np.testing.assert_allclose(
        compiled.worst_delay, reference.worst_delay, rtol=1e-12, atol=1e-9
    )
    assert set(compiled.end_arrivals) == set(reference.end_arrivals)
    for net, values in reference.end_arrivals.items():
        np.testing.assert_allclose(
            compiled.end_arrivals[net], values, rtol=1e-12, atol=1e-9
        )


@pytest.fixture(scope="module")
def engines():
    cache = {}

    def get(name):
        if name not in cache:
            netlist = load_circuit(name)
            placement = place_netlist(netlist, DIE, seed=7)
            cache[name] = STAEngine(netlist, placement)
        return cache[name]

    return get


@pytest.mark.parametrize("circuit", default_table1_circuits())
def test_compiled_matches_reference_all_circuits(engines, circuit):
    """Statistical differential across every default benchmark circuit."""
    engine = engines(circuit)
    samples = _samples(engine.netlist, 8)
    reference = engine.run(samples, engine="reference")
    compiled = engine.run(samples, engine="compiled")
    _assert_matches(compiled, reference)


# s5378 has DFF-sourced nets (sequential start points); c880 is purely
# combinational — together they cover both arena initialization paths.
@pytest.mark.parametrize("circuit", ["c880", "s5378"])
@pytest.mark.parametrize(
    "mode",
    ["nominal", "statistical", "keep_all", "wire_r", "wire_c", "wire_rc"],
)
def test_compiled_matches_reference_modes(engines, circuit, mode):
    engine = engines(circuit)
    num_samples = 32
    kwargs = {}
    samples = None
    if mode == "nominal":
        num_samples = 1
    else:
        samples = _samples(engine.netlist, num_samples)
    if mode == "keep_all":
        kwargs["keep_all_arrivals"] = True
    if mode.startswith("wire_"):
        keys = {"wire_r": ("R",), "wire_c": ("C",), "wire_rc": ("R", "C")}
        kwargs["wire_scales"] = _wire_scales(
            engine, num_samples, keys[mode]
        )
    reference = engine.run(samples, engine="reference", **kwargs)
    compiled = engine.run(samples, engine="compiled", **kwargs)
    _assert_matches(compiled, reference)
    if mode == "keep_all":
        # Every net must survive, not just the end points.
        assert set(compiled.end_arrivals) == set(engine.net_order())


@pytest.mark.parametrize("wire", [False, True])
def test_chunked_is_bitwise_identical(engines, wire):
    engine = engines("s5378")
    samples = _samples(engine.netlist, 100)
    kwargs = {}
    if wire:
        kwargs["wire_scales"] = _wire_scales(engine, 100, ("R", "C"))
    full = engine.run(samples, engine="compiled", **kwargs)
    chunked = engine.run(
        samples, engine="compiled", chunk_size=33, **kwargs
    )
    assert np.array_equal(full.worst_delay, chunked.worst_delay)
    for net, values in full.end_arrivals.items():
        assert np.array_equal(values, chunked.end_arrivals[net])
    if wire:
        # The kernel reads C-ordered scale rows; other layouts are copied.
        fortran = engine.run(
            samples,
            engine="compiled",
            wire_scales={
                key: np.asfortranarray(m)
                for key, m in kwargs["wire_scales"].items()
            },
        )
        assert np.array_equal(full.worst_delay, fortran.worst_delay)


def test_chunked_reference_matches(engines):
    """chunk_size composes with the reference engine too."""
    engine = engines("c880")
    samples = _samples(engine.netlist, 60)
    full = engine.run(samples, engine="reference")
    chunked = engine.run(samples, engine="reference", chunk_size=25)
    assert np.array_equal(full.worst_delay, chunked.worst_delay)


@pytest.mark.parametrize("wire", [False, True])
def test_no_native_runs_the_reference_loop(engines, monkeypatch, wire):
    """Without the kernel, ``engine="compiled"`` is the reference loop.

    Bitwise, because it is the same code; the native run matches both
    to reassociation error, wire scales included.
    """
    engine = engines("s5378")
    samples = _samples(engine.netlist, 32)
    kwargs = {}
    if wire:
        kwargs["wire_scales"] = _wire_scales(engine, 32, ("R", "C"))
    reference = engine.run(samples, engine="reference", **kwargs)
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_NATIVE", "1")
        fallback = engine.run(samples, engine="compiled", **kwargs)
        assert engine.program.last_run_native is False
    assert np.array_equal(fallback.worst_delay, reference.worst_delay)
    assert set(fallback.end_arrivals) == set(reference.end_arrivals)
    for net, values in reference.end_arrivals.items():
        assert np.array_equal(fallback.end_arrivals[net], values)
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    with_native = engine.run(samples, engine="compiled", **kwargs)
    assert engine.program.last_run_native is True
    _assert_matches(with_native, reference)


def test_chunk_size_bounds_peak_memory(engines, monkeypatch):
    """Streaming chunks must bound the per-run working set.

    Runs without the kernel, i.e. on the reference loop, whose ``(N,)``
    per-net arrays and ``(N, N_g)`` projection tracemalloc sees (the
    kernel's arenas are bounded by its sample block already), and
    compares the traced allocation peak of a chunked run against the
    unchunked one on the same inputs.
    """
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    engine = engines("c7552")
    num_samples = 3000
    samples = _samples(engine.netlist, num_samples)

    def peak_of(**kwargs):
        tracemalloc.start()
        result = engine.run(samples, engine="compiled", **kwargs)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return result, peak

    full, full_peak = peak_of()
    chunked, chunked_peak = peak_of(chunk_size=100)
    assert engine.program.last_run_native is False
    assert np.array_equal(full.worst_delay, chunked.worst_delay)
    assert chunked_peak < full_peak / 2, (
        f"chunked peak {chunked_peak / 1e6:.1f} MB not well below "
        f"unchunked {full_peak / 1e6:.1f} MB"
    )


def test_last_run_native_reflects_env(engines, monkeypatch):
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    engine = engines("c880")
    engine.run(None, engine="compiled")
    assert engine.program.last_run_native is True
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    engine.run(None, engine="compiled")
    assert engine.program.last_run_native is False
