"""Differential tests: compiled STA engine vs the per-gate reference.

The compiled engine (the native kernel) must reproduce the reference
engine to floating-point reassociation error — ``rtol=1e-12`` — across
circuits and analysis modes (nominal, statistical, wire R/C,
DFF-sourced nets), and its runs must be *bitwise* identical whatever
size of blocks the kernel cuts the sample axis into.  Without the
kernel, ``engine="compiled"`` runs the reference loop.
"""

import numpy as np
import pytest

import repro.timing.compiled as compiled
from repro.circuit.benchmarks import load_circuit
from repro.experiments.table1 import default_table1_circuits
from repro.field.sampling import FieldSamples, gate_basis
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.ssta import MonteCarloSSTA
from repro.timing.sta import ENGINE_MODES, STAEngine

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
    "mode", ["nominal", "statistical", "wire_r", "wire_c", "wire_rc"]
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
    if mode.startswith("wire_"):
        keys = {"wire_r": ("R",), "wire_c": ("C",), "wire_rc": ("R", "C")}
        kwargs["wire_scales"] = _wire_scales(
            engine, num_samples, keys[mode]
        )
    reference = engine.run(samples, engine="reference", **kwargs)
    compiled_run = engine.run(samples, engine="compiled", **kwargs)
    _assert_matches(compiled_run, reference)


@pytest.mark.parametrize("wire", [False, True])
def test_chunked_is_bitwise_identical(engines, monkeypatch, wire):
    """The kernel's 32-lane blocks give one whole block's bits."""
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    engine = engines("s5378")
    samples = _samples(engine.netlist, 100)
    kwargs = {"engine": "compiled", "native_threads": 1}
    if wire:
        kwargs["wire_scales"] = _wire_scales(engine, 100, ("R", "C"))
    full = engine.run(samples, **kwargs)
    program = engine.program
    assert program._native_block_size(100, program.num_slots) == 100
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
        assert program._native_block_size(100, program.num_slots) == 32
        chunked = engine.run(samples, **kwargs)
    assert np.array_equal(full.worst_delay, chunked.worst_delay)
    for net, values in full.end_arrivals.items():
        assert np.array_equal(values, chunked.end_arrivals[net])
    if wire:
        # The kernel reads C-ordered scale rows; other layouts are copied.
        fortran = engine.run(
            samples,
            engine="compiled",
            native_threads=1,
            wire_scales={
                key: np.asfortranarray(m)
                for key, m in kwargs["wire_scales"].items()
            },
        )
        assert np.array_equal(full.worst_delay, fortran.worst_delay)


def test_chunked_reference_matches(
    c880, c880_placement, gaussian_kernel, gaussian_kle
):
    """A chunked flow on the reference engine times the chunks the
    compiled engine times, to ``rtol=1e-12``."""
    runs = [
        MonteCarloSSTA(
            c880, c880_placement, gaussian_kernel, gaussian_kle, r=10,
            engine=mode,
        ).run_kle(60, seed=4, chunk_size=25).sta
        for mode in ("reference", "compiled")
    ]
    reference, compiled_run = runs
    assert reference.num_samples == compiled_run.num_samples == 60
    np.testing.assert_allclose(
        compiled_run.mean_worst_delay(), reference.mean_worst_delay(),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        compiled_run.std_worst_delay(), reference.std_worst_delay(),
        rtol=1e-12,
    )


def test_nominal_run_broadcasts_to_every_wire_row(engines):
    """Nominal parameters take one sample per wire-scale row, on both
    engines and past one native block."""
    engine = engines("c880")
    wire_scales = _wire_scales(engine, 5000, ("R", "C"))
    program = engine.program
    assert program._native_block_size(5000, program.num_slots) < 5000
    reference = engine.run(None, engine="reference", wire_scales=wire_scales)
    compiled_run = engine.run(None, engine="compiled", wire_scales=wire_scales)
    assert reference.num_samples == compiled_run.num_samples == 5000
    _assert_matches(compiled_run, reference)


@pytest.mark.parametrize("form", ["dict", "factored"])
def test_one_sample_parameters_do_not_broadcast_to_wire_rows(
    engines, gaussian_kle, form
):
    engine = engines("c880")
    if form == "dict":
        samples = _samples(engine.netlist, 1)
    else:
        basis = gate_basis(
            {name: gaussian_kle for name in STATISTICAL_PARAMETERS},
            {name: 10 for name in STATISTICAL_PARAMETERS},
            engine.placement.gate_locations(),
        )
        samples = FieldSamples(basis, [np.zeros((1, basis.dimension))])
    wire_scales = _wire_scales(engine, 5000, ("R",))
    for mode in ENGINE_MODES:
        with pytest.raises(ValueError, match="must match parameter sample"):
            engine.run(samples, engine=mode, wire_scales=wire_scales)


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


def test_last_run_native_reflects_env(engines, monkeypatch):
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    engine = engines("c880")
    engine.run(None, engine="compiled")
    assert engine.program.last_run_native is True
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    engine.run(None, engine="compiled")
    assert engine.program.last_run_native is False
