"""Algorithm 2 samples in factored form (:class:`FieldSamples`).

``KLESampleGenerator.generate`` returns the ``(N, Σr)`` ξ draw plus the
placement's ξ → gate basis; the timing engine projects it with one GEMM
per generated sample set, ``u = Ξ W``, and a parameter's ``(N, N_g)``
field exists only when a caller reads it.  These tests pin the contracts
that design has to keep:

- ``generate()`` + ``engine.run`` is ``run_kle`` bit for bit, for every
  sampler, with and without a parameter cross-correlation;
- materialized fields are C-ordered and bitwise the classic
  ``(ξ_j D_λ,jᵀ)[:, tri]`` arithmetic, C ⊗ K mix included;
- a request's rows of a batched sweep are exactly its own serial rows;
- chunking slices ``u``, never ξ, so chunked runs are bitwise unchunked;
- factored and materialized inputs agree to ``rtol=1e-12`` on every
  engine, and the native kernel is bitwise across thread counts;
- nothing ``(N, N_g)`` per parameter is allocated on the ``run_kle`` path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.field.sampling import (
    FieldSamples,
    KLESampleGenerator,
    _mix_parameters,
    gate_basis,
)
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
    return MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=R
    )


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
    # One (N, N_g) projection u; four parameter fields would be 4×.
    assert peak < 2 * num_samples * num_gates * 8


def _active(num_samples, seed, request_id):
    request = AnalysisRequest(
        circuit="c880", r=R, num_samples=num_samples, seed=seed
    )
    stream = ResultStream(request, request_id, buffer_chunks=8)
    return ActiveRequest(
        request=request, stream=stream, seed=seed, submitted_at=0.0
    )


def test_batched_requests_project_to_their_own_rows(harness):
    sizes_seeds = ((128, 901), (1, 902), (37, 903))
    generated = [
        harness.kle_generator.generate(harness.gate_locations, n, seed=s)
        for n, s in sizes_seeds
    ]
    batch = FieldSamples.concatenate([g.samples for g in generated])
    assert batch.num_samples == 166
    weights = _weights(harness.engine)
    u = batch.projection(weights)
    swept = harness.engine.run(batch)
    offset = 0
    for (rows, seed), each in zip(sizes_seeds, generated):
        own = slice(offset, offset + rows)
        assert np.array_equal(u[own], each.samples.projection(weights))
        serial = harness.run_kle(rows, seed=seed).sta
        assert np.array_equal(swept.worst_delay[own], serial.worst_delay)
        offset += rows

    # The same through the service's batcher: each request's streamed
    # rows are its serial run's rows.
    batch_requests = [
        _active(rows, seed, f"t-{i}")
        for i, (rows, seed) in enumerate(sizes_seeds)
    ]
    execute_batch(batch_requests, harness, FaultInjector())
    for active, (rows, seed) in zip(batch_requests, sizes_seeds):
        (chunk,) = list(active.stream.chunks(0.1))
        serial = harness.run_kle(rows, seed=seed).sta
        assert np.array_equal(chunk.worst_delay, serial.worst_delay)


def test_stacking_needs_one_basis(harness, gaussian_kle):
    one = harness.kle_generator.generate(harness.gate_locations, 4, seed=1)
    other = _generator(gaussian_kle).generate(
        harness.gate_locations, 4, seed=1
    )
    with pytest.raises(ValueError, match="one basis"):
        FieldSamples.concatenate([one.samples, other.samples])
    with pytest.raises(ValueError, match="one basis"):
        FieldSamples.concatenate([one.samples, dict(one.samples)])


@pytest.mark.parametrize(
    "engine_mode, chunk_sizes",
    [("compiled", (1, 7, 64, 149)), ("reference", (37, 149))],
)
def test_chunking_slices_u_not_xi(harness, engine_mode, chunk_sizes):
    samples = harness.kle_generator.generate(
        harness.gate_locations, 150, seed=12
    ).samples
    whole = harness.engine.run(samples, engine=engine_mode)
    for chunk_size in chunk_sizes:
        chunked = harness.engine.run(
            samples, engine=engine_mode, chunk_size=chunk_size
        )
        assert np.array_equal(chunked.worst_delay, whole.worst_delay)
        for net, values in whole.end_arrivals.items():
            assert np.array_equal(chunked.end_arrivals[net], values)


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
    assert np.array_equal(one.worst_delay, two.worst_delay)
    for net, values in one.end_arrivals.items():
        assert np.array_equal(two.end_arrivals[net], values)


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
