"""Algorithm 2 samples in factored form (:class:`FieldSamples`).

``KLESampleGenerator.generate`` returns the ``(N, Σr)`` ξ draw plus the
placement's ξ → gate basis, and a parameter's ``(N, N_g)`` field exists
only when a caller reads it.  The timing engine reads the draw as field
rows: a C-ordered ``(rows, N)`` array built with one GEMM per parameter
(or one in all) per generated sample set, plus a row map that gives each
gate's ``u`` as a weighted sum of ``P`` rows.  The basis picks the form
from the placement alone: the paper's per-triangle fields ``D_λ ξ`` on
the triangles that hold a gate when those are fewer than the gates,
else one row per gate, ``W ξᵀ``.  These tests pin the contracts that
design has to keep, on both forms:

- ``generate()`` + ``engine.run`` is ``run_kle`` bit for bit, for every
  sampler, with and without a parameter cross-correlation;
- materialized fields are C-ordered and bitwise the classic
  ``(ξ_j D_λ,jᵀ)[:, tri]`` arithmetic, C ⊗ K mix included;
- a request's lanes of a batched sweep's field rows are exactly its own
  serial rows, and so are its worst delays;
- the kernel's blocks move their lane offset along the rows, so a run
  in small blocks is bitwise one in a single block;
- factored and materialized inputs agree to ``rtol=1e-12`` on every
  engine, and the native kernel is bitwise across thread counts;
- an engine builds a basis's row map once;
- nothing ``(N, N_g)`` per parameter is allocated on the ``run_kle``
  path, and nothing ``(N, N_g)`` at all on the triangle form's.
"""

import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.timing.compiled as compiled
from repro.core.galerkin import solve_kle
from repro.field.sampling import (
    FieldSamples,
    GateBasis,
    KLESampleGenerator,
    _mix_parameters,
    gate_basis,
)
from repro.mesh.structured import structured_rectangle_mesh
from repro.service.batcher import ActiveRequest, execute_batch
from repro.service.faults import FaultInjector
from repro.service.request import AnalysisRequest
from repro.service.stream import ResultStream
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.ssta import MonteCarloSSTA
from repro.timing.sta import STAEngine
from repro.utils.linalg import cholesky_with_jitter
from repro.utils.rng import spawn_generators

R = 12
SAMPLERS = ("pseudo", "antithetic", "sobol")
#: A valid 4 × 4 parameter correlation (L–W and Vt–tox coupled).
CROSS = np.array(
    [
        [1.0, 0.6, 0.0, 0.1],
        [0.6, 1.0, 0.2, 0.0],
        [0.0, 0.2, 1.0, -0.3],
        [0.1, 0.0, -0.3, 1.0],
    ]
)


@pytest.fixture(scope="module")
def harness(c880, c880_placement, gaussian_kernel, gaussian_kle):
    """c880 on the 10 × 10 mesh: more used triangles (×4) than gates."""
    harness = MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=R
    )
    harness.kle_generator.prepare(harness.gate_locations)
    assert harness.kle_generator._basis.row_form == "gate"
    return harness


@pytest.fixture(scope="module")
def triangle_harness(c880, c880_placement, gaussian_kernel):
    """c880 on a 4 × 4 mesh: 32 triangles (×4) against 383 gates."""
    mesh = structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 4, 4)
    kle = solve_kle(gaussian_kernel, mesh, num_eigenpairs=R)
    harness = MonteCarloSSTA(c880, c880_placement, gaussian_kernel, kle, r=R)
    harness.kle_generator.prepare(harness.gate_locations)
    basis = harness.kle_generator._basis
    assert basis.row_form == "triangle"
    assert basis.num_triangle_rows <= 4 * 32 < c880.num_gates
    return harness


def _generator(kle, sampler="pseudo", cross=None):
    return KLESampleGenerator(
        {name: kle for name in STATISTICAL_PARAMETERS},
        r=R,
        sampler=sampler,
        cross_correlation=cross,
    )


def _weights(engine):
    return {
        name: engine._packed_models.parameter_weights(name)
        for name in STATISTICAL_PARAMETERS
    }


@pytest.mark.parametrize("cross", [False, True], ids=["independent", "cxk"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_generate_then_run_is_run_kle_bitwise(
    harness, gaussian_kle, monkeypatch, sampler, cross
):
    generator = _generator(gaussian_kle, sampler, CROSS if cross else None)
    monkeypatch.setattr(harness, "kle_generator", generator)
    public = harness.run_kle(57, seed=31).sta
    generated = generator.generate(harness.gate_locations, 57, seed=31)
    assert isinstance(generated.samples, FieldSamples)
    split = harness.engine.run(generated.samples)
    assert np.array_equal(public.worst_delay, split.worst_delay)
    for net, values in public.end_arrivals.items():
        assert np.array_equal(values, split.end_arrivals[net])


@pytest.mark.parametrize("num_samples", [1, 37, 128])
@pytest.mark.parametrize("cross", [False, True], ids=["independent", "cxk"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_materialized_fields_are_the_classic_gather(
    harness, gaussian_kle, sampler, cross, num_samples
):
    cross_matrix = CROSS if cross else None
    generator = _generator(gaussian_kle, sampler, cross_matrix)
    samples = generator.generate(
        harness.gate_locations, num_samples, seed=8
    ).samples
    xi = samples.xi
    assert xi.shape == (num_samples, 4 * R) and xi.flags.c_contiguous
    if sampler == "pseudo":
        # ξ is the per-parameter draws side by side.
        draws = [
            rng.standard_normal((num_samples, R))
            for rng in spawn_generators(8, len(STATISTICAL_PARAMETERS))
        ]
        np.testing.assert_array_equal(xi, np.concatenate(draws, axis=1))
    triangles = gaussian_kle.locator.locate_many(harness.gate_locations)
    d_lambda = gaussian_kle.reconstruction_matrix(R)
    raw = {
        name: (np.ascontiguousarray(xi[:, j * R : (j + 1) * R]) @ d_lambda.T)[
            :, triangles
        ]
        for j, name in enumerate(STATISTICAL_PARAMETERS)
    }
    upper = None if cross_matrix is None else cholesky_with_jitter(CROSS)
    expected = _mix_parameters(raw, upper)
    assert list(samples) == list(STATISTICAL_PARAMETERS)
    for name in STATISTICAL_PARAMETERS:
        field = samples[name]
        assert field.flags.c_contiguous
        np.testing.assert_array_equal(field, expected[name])


def test_fields_are_built_only_when_read(harness, gaussian_kle):
    num_samples = 3000
    generator = _generator(gaussian_kle)
    generator.prepare(harness.gate_locations)
    tracemalloc.start()
    try:
        samples = generator.generate(
            harness.gate_locations, num_samples, seed=2
        ).samples
        held, generate_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert "L" in samples and "Q" not in samples
        assert len(samples) == 4 and list(samples.keys())[0] == "L"
        _, lookup_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The per-parameter draws and their concatenation, nothing more;
    # membership and key lookups build nothing.
    assert generate_peak < 3 * samples.xi.nbytes
    assert lookup_peak - held < 64 * 1024
    with pytest.raises(KeyError):
        samples["Q"]


def test_run_kle_allocates_no_per_parameter_field(harness):
    num_samples = 2000
    num_gates = harness.netlist.num_gates
    harness.run_kle(16, seed=0)  # warm the basis and the kernel
    tracemalloc.start()
    try:
        harness.run_kle(num_samples, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One row per gate (the gate form); four parameter fields would be 4×.
    assert peak < 2 * num_samples * num_gates * 8


def _active(num_samples, seed, request_id):
    request = AnalysisRequest(
        circuit="c880", r=R, num_samples=num_samples, seed=seed
    )
    stream = ResultStream(request, request_id, buffer_chunks=8)
    return ActiveRequest(
        request=request, stream=stream, seed=seed, submitted_at=0.0
    )


def test_batched_requests_project_to_their_own_rows(
    harness, triangle_harness
):
    sizes_seeds = ((128, 901), (1, 902), (37, 903))
    for each_harness in (harness, triangle_harness):
        _check_batched_rows(each_harness, sizes_seeds)


def _check_batched_rows(harness, sizes_seeds):
    generated = [
        harness.kle_generator.generate(harness.gate_locations, n, seed=s)
        for n, s in sizes_seeds
    ]
    batch = FieldSamples.concatenate([g.samples for g in generated])
    assert batch.num_samples == 166
    row_map = harness.engine._row_map(batch.basis)
    rows = batch.field_rows(row_map)
    assert rows.shape == (row_map.num_rows, 166) and rows.flags.c_contiguous
    swept = harness.engine.run(batch)
    offset = 0
    for (count, seed), each in zip(sizes_seeds, generated):
        own = slice(offset, offset + count)
        assert np.array_equal(rows[:, own], each.samples.field_rows(row_map))
        serial = harness.run_kle(count, seed=seed).sta
        assert np.array_equal(swept.worst_delay[own], serial.worst_delay)
        offset += count

    # The same through the service's batcher: each request's streamed
    # rows are its serial run's rows.
    batch_requests = [
        _active(count, seed, f"t-{i}")
        for i, (count, seed) in enumerate(sizes_seeds)
    ]
    execute_batch(batch_requests, harness, FaultInjector())
    for active, (count, seed) in zip(batch_requests, sizes_seeds):
        (chunk,) = list(active.stream.chunks(0.1))
        serial = harness.run_kle(count, seed=seed).sta
        assert np.array_equal(chunk.worst_delay, serial.worst_delay)


@pytest.mark.parametrize("form", ["gate", "triangle"])
def test_row_map_is_built_once_per_basis_and_engine(
    harness, triangle_harness, monkeypatch, form
):
    """A second run on the same basis and engine rebuilds neither the
    row map nor, on the gate form, ``W``; another engine builds its own."""
    chosen = harness if form == "gate" else triangle_harness
    counts = {"row_map": 0, "sensitivity": 0}

    def counting(name):
        original = getattr(GateBasis, name)

        def wrapper(self, weights):
            counts[name] += 1
            return original(self, weights)

        monkeypatch.setattr(GateBasis, name, wrapper)

    counting("row_map")
    counting("sensitivity")
    generator = _generator(chosen.kle_generator.kles["L"])
    generator.prepare(chosen.gate_locations)
    engine = STAEngine(chosen.netlist, chosen.placement)
    first = engine.run(
        generator.generate(chosen.gate_locations, 40, seed=1).samples
    )
    second = engine.run(
        generator.generate(chosen.gate_locations, 40, seed=1).samples
    )
    assert np.array_equal(first.worst_delay, second.worst_delay)
    built_w = 1 if form == "gate" else 0
    assert counts == {"row_map": 1, "sensitivity": built_w}
    STAEngine(chosen.netlist, chosen.placement).run(
        generator.generate(chosen.gate_locations, 4, seed=2).samples
    )
    assert counts == {"row_map": 2, "sensitivity": 2 * built_w}


def test_concurrent_first_runs_build_the_row_map_once(
    triangle_harness, monkeypatch
):
    """More threads than cores race one engine's first run on a basis,
    as the service's workers do: one map is built and every result is
    the serial one."""
    harness = triangle_harness
    builds = []
    original = GateBasis.row_map

    def slow_row_map(self, weights):
        builds.append(threading.get_ident())
        time.sleep(0.01)
        return original(self, weights)

    monkeypatch.setattr(GateBasis, "row_map", slow_row_map)
    samples = harness.kle_generator.generate(
        harness.gate_locations, 33, seed=6
    ).samples
    serial = STAEngine(harness.netlist, harness.placement).run(samples)
    builds.clear()
    engine = STAEngine(harness.netlist, harness.placement)
    engine.program  # noqa: B018 — compile outside the race
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(engine.run, samples) for _ in range(16)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    for result in results:
        assert np.array_equal(result.worst_delay, serial.worst_delay)


def test_triangle_form_keeps_the_bitwise_contracts(
    triangle_harness, monkeypatch
):
    """``generate`` + ``run`` is ``run_kle``, 32-lane kernel blocks are
    one block, and two kernel threads are one, all on the triangle form."""
    harness = triangle_harness
    public = harness.run_kle(150, seed=12).sta
    samples = harness.kle_generator.generate(
        harness.gate_locations, 150, seed=12
    ).samples
    reference = harness.engine.run(samples, engine="reference")
    runs = [harness.engine.run(samples)]
    if native.load_kernel() is not None:
        runs.append(harness.engine.run(samples, native_threads=2))
        with monkeypatch.context() as patch:
            patch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
            runs.append(harness.engine.run(samples, native_threads=1))
            runs.append(harness.engine.run(samples, native_threads=2))
    for run in runs:
        assert np.array_equal(run.worst_delay, public.worst_delay)
        for net, values in public.end_arrivals.items():
            assert np.array_equal(run.end_arrivals[net], values)
    np.testing.assert_allclose(
        reference.worst_delay, public.worst_delay, rtol=1e-12
    )


def test_triangle_form_run_kle_allocates_no_gate_sized_array(
    triangle_harness, monkeypatch
):
    """The triangle form's rows are ``4 · used × N``: no ``(N, N_g)``
    array — neither ``u`` nor a field — is ever allocated."""
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    # Cache-sized blocks keep the arenas small next to an (N, N_g) array.
    monkeypatch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
    harness = triangle_harness
    num_samples = 3000
    harness.run_kle(16, seed=0)  # warm the row map and the kernel
    tracemalloc.start()
    try:
        harness.run_kle(num_samples, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < num_samples * harness.netlist.num_gates * 8


def test_stacking_needs_one_basis(harness, gaussian_kle):
    one = harness.kle_generator.generate(harness.gate_locations, 4, seed=1)
    other = _generator(gaussian_kle).generate(
        harness.gate_locations, 4, seed=1
    )
    with pytest.raises(ValueError, match="one basis"):
        FieldSamples.concatenate([one.samples, other.samples])
    with pytest.raises(ValueError, match="one basis"):
        FieldSamples.concatenate([one.samples, dict(one.samples)])


@pytest.mark.parametrize("cross", [False, True], ids=["independent", "cxk"])
def test_factored_matches_materialized_on_every_engine(
    c880, c880_placement, gaussian_kle, monkeypatch, cross
):
    engine = STAEngine(c880, c880_placement)
    generator = _generator(gaussian_kle, cross=CROSS if cross else None)
    samples = generator.generate(
        c880_placement.gate_locations(), 70, seed=5
    ).samples
    fields = dict(samples)
    oracle = engine.run(fields, engine="reference")

    def close(run):
        np.testing.assert_allclose(
            run.worst_delay, oracle.worst_delay, rtol=1e-12
        )
        for net, values in oracle.end_arrivals.items():
            np.testing.assert_allclose(
                run.end_arrivals[net], values, rtol=1e-12
            )

    reference = engine.run(samples, engine="reference")
    close(reference)
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_NATIVE", "1")
        fallback = engine.run(samples, engine="compiled")
        assert engine.program.last_run_native is False
    # Without the kernel, engine="compiled" is the reference loop.
    assert np.array_equal(fallback.worst_delay, reference.worst_delay)
    for net, values in reference.end_arrivals.items():
        assert np.array_equal(fallback.end_arrivals[net], values)
    if native.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    one = engine.run(samples, engine="compiled", native_threads=1)
    assert engine.program.last_run_native is True
    close(one)
    two = engine.run(samples, engine="compiled", native_threads=2)
    with monkeypatch.context() as patch:
        # 32-lane blocks, each reading its own lanes of the field rows.
        patch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
        blocked = engine.run(samples, engine="compiled", native_threads=1)
    for run in (two, blocked):
        assert np.array_equal(one.worst_delay, run.worst_delay)
        for net, values in one.end_arrivals.items():
            assert np.array_equal(run.end_arrivals[net], values)


def test_basis_rows_and_weights_give_blockwise_sensitivity(
    harness, gaussian_kle
):
    basis = gate_basis(
        {"L": gaussian_kle, "Vt": gaussian_kle},
        {"L": 5, "Vt": 9},
        harness.gate_locations,
    )
    assert basis.names == ("L", "Vt") and basis.dimension == 14
    weights = _weights(harness.engine)
    sensitivity = basis.sensitivity(weights)
    assert sensitivity.shape == (harness.netlist.num_gates, 14)
    for parameter in basis.parameters:
        block = sensitivity[
            :, parameter.offset : parameter.offset + parameter.rank
        ]
        assert np.array_equal(
            block, weights[parameter.name][:, None] * parameter.rows
        )
