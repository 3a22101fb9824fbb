"""Tests for the Monte-Carlo SSTA harness (Algorithm 1 vs Algorithm 2)."""

import tracemalloc

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.core.kernels import GaussianKernel
from repro.place.placer import place_netlist
from repro.timing.ssta import MonteCarloSSTA, sigma_error_over_outputs


@pytest.fixture(scope="module")
def harness(c880, c880_placement, gaussian_kernel, gaussian_kle):
    return MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=20
    )


def test_reference_run(harness):
    run = harness.run_reference(200, seed=0)
    assert run.sta.num_samples == 200
    assert run.sta.std_worst_delay() > 0.0
    assert run.total_seconds > 0.0


def test_kle_run(harness):
    run = harness.run_kle(200, seed=0)
    assert run.sta.num_samples == 200
    assert run.sta.std_worst_delay() > 0.0


def test_r_property(harness):
    assert harness.r == 20


def test_flows_statistically_agree(harness):
    """The paper's core claim at small scale: both flows produce matching
    delay statistics (within MC noise + discretization)."""
    reference = harness.run_reference(3000, seed=1)
    kle = harness.run_kle(3000, seed=2)
    ref_mean = reference.sta.mean_worst_delay()
    kle_mean = kle.sta.mean_worst_delay()
    assert abs(kle_mean - ref_mean) / ref_mean < 0.01
    ref_std = reference.sta.std_worst_delay()
    kle_std = kle.sta.std_worst_delay()
    assert abs(kle_std - ref_std) / ref_std < 0.15


def test_compare_row_fields(harness):
    row = harness.compare(300, seed=0, circuit_name="c880")
    assert row.circuit == "c880"
    assert row.num_gates == 383
    assert row.num_samples == 300
    assert row.r == 20
    assert row.e_mu_percent >= 0.0
    assert row.e_sigma_percent >= 0.0
    assert row.speedup > 0.0
    assert row.sigma_error_outputs_percent >= 0.0


def test_e_mu_much_smaller_than_e_sigma_typically(harness):
    """Means agree far more tightly than sigmas (Table 1 pattern)."""
    row = harness.compare(2000, seed=3)
    assert row.e_mu_percent < 1.0


def test_single_kernel_broadcast(c880, c880_placement, gaussian_kle):
    harness = MonteCarloSSTA(
        c880, c880_placement, GaussianKernel(2.7), gaussian_kle, r=10
    )
    assert set(harness.kernels) == {"L", "W", "Vt", "tox"}
    assert set(harness.kles) == {"L", "W", "Vt", "tox"}


def test_per_parameter_kernel_mapping(c880, c880_placement, gaussian_kernel, gaussian_kle):
    harness = MonteCarloSSTA(
        c880,
        c880_placement,
        {"L": gaussian_kernel, "Vt": gaussian_kernel},
        {"L": gaussian_kle, "Vt": gaussian_kle},
        r=10,
    )
    run = harness.run_kle(50, seed=0)
    assert set(run.sta.end_arrivals)  # runs fine with two parameters


def test_kernel_mapping_validation(c880, c880_placement, gaussian_kernel, gaussian_kle):
    with pytest.raises(ValueError, match="unknown statistical parameters"):
        MonteCarloSSTA(
            c880, c880_placement, {"Leff": gaussian_kernel}, gaussian_kle
        )
    with pytest.raises(ValueError, match="missing KLE"):
        MonteCarloSSTA(
            c880,
            c880_placement,
            {"L": gaussian_kernel, "W": gaussian_kernel},
            {"L": gaussian_kle},
        )


def test_sigma_error_over_outputs_zero_for_identical(harness):
    run = harness.run_reference(100, seed=5)
    assert sigma_error_over_outputs(run.sta, run.sta) == 0.0


def test_sigma_error_over_outputs_positive_for_different(harness):
    a = harness.run_reference(400, seed=6)
    b = harness.run_kle(400, seed=7)
    err = sigma_error_over_outputs(a.sta, b.sta)
    assert err > 0.0
    assert err < 50.0


def test_compare_deterministic(harness):
    row1 = harness.compare(100, seed=9)
    row2 = harness.compare(100, seed=9)
    assert row1.e_sigma_percent == pytest.approx(row2.e_sigma_percent)
    assert row1.reference_mean == pytest.approx(row2.reference_mean)


# ---------------------------------------------------------------------------
# Wire variation through both flows (extension).
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def wire_harness(c880, c880_placement, gaussian_kernel, gaussian_kle):
    return MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=20,
        wire_sigma={"R": 0.10, "C": 0.08},
    )


def test_wire_variation_widens_distribution(harness, wire_harness):
    without = harness.run_kle(1500, seed=20)
    with_wires = wire_harness.run_kle(1500, seed=20)
    assert with_wires.sta.std_worst_delay() > without.sta.std_worst_delay()


def test_wire_variation_flows_still_agree(wire_harness):
    """With wires varying in both flows, e_mu/e_sigma stay in band."""
    row = wire_harness.compare(2000, seed=21)
    assert row.e_mu_percent < 1.0
    assert row.e_sigma_percent < 12.0


def test_wire_sigma_validation(c880, c880_placement, gaussian_kernel, gaussian_kle):
    with pytest.raises(ValueError, match="keys must be"):
        MonteCarloSSTA(
            c880, c880_placement, gaussian_kernel, gaussian_kle,
            wire_sigma={"Rwire": 0.1},
        )
    with pytest.raises(ValueError, match="lie in"):
        MonteCarloSSTA(
            c880, c880_placement, gaussian_kernel, gaussian_kle,
            wire_sigma={"R": 1.5},
        )


# ---------------------------------------------------------------------------
# Streaming (chunked) SSTA runs.
# ---------------------------------------------------------------------------
def test_streaming_moments_match_concatenated(harness):
    """StreamingSTAResult's Chan-merged moments equal numpy on the full
    concatenated stream."""
    import numpy as np

    from repro.timing.ssta import StreamingSTAResult

    chunks = [harness.run_reference(n, seed=s).sta for n, s in ((70, 0), (50, 1), (30, 2))]
    streaming = StreamingSTAResult()
    for chunk in chunks:
        streaming.update(chunk)
    worst = np.concatenate([c.worst_delay for c in chunks])
    assert streaming.num_samples == worst.size
    assert streaming.mean_worst_delay() == pytest.approx(
        float(np.mean(worst)), rel=1e-12
    )
    assert streaming.std_worst_delay() == pytest.approx(
        float(np.std(worst)), rel=1e-12
    )
    for net in chunks[0].end_arrivals:
        values = np.concatenate([c.end_arrivals[net] for c in chunks])
        assert streaming.output_sigma()[net] == pytest.approx(
            float(np.std(values)), rel=1e-10, abs=1e-12
        )
        assert streaming.output_mean()[net] == pytest.approx(
            float(np.mean(values)), rel=1e-12
        )


def test_chunked_run_statistics(harness):
    """A chunked flow run produces the same statistics (within MC noise of
    different-but-equally-valid streams) and the same accounting fields."""
    run = harness.run_kle(600, seed=31, chunk_size=128)
    full = harness.run_kle(600, seed=31)
    assert run.sta.num_samples == 600
    assert run.total_seconds > 0.0
    assert run.sta.mean_worst_delay() == pytest.approx(
        full.sta.mean_worst_delay(), rel=0.02
    )
    assert run.sta.std_worst_delay() == pytest.approx(
        full.sta.std_worst_delay(), rel=0.35
    )


def test_chunk_size_bounds_peak_memory(gaussian_kernel, gaussian_kle):
    """Streaming chunks bound a flow's working set end to end.

    A chunked flow generates and times one chunk at a time, so on c7552
    at 3,000 samples its traced allocation peak stays well below the
    unchunked run's, on both flows.  A one-sample run of each flow first
    factors the covariance, builds the gate basis and its row map and
    compiles the program, so neither peak counts set-up.
    """
    netlist = load_circuit("c7552")
    placement = place_netlist(netlist, (-1.0, -1.0, 1.0, 1.0), seed=7)
    harness = MonteCarloSSTA(
        netlist, placement, gaussian_kernel, gaussian_kle, r=25
    )
    for flow in (harness.run_kle, harness.run_reference):
        flow(1, seed=0)

        def peak_of(**kwargs):
            tracemalloc.start()
            try:
                run = flow(3000, seed=9, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert run.sta.num_samples == 3000
            return peak

        full_peak = peak_of()
        chunked_peak = peak_of(chunk_size=100)
        assert chunked_peak < full_peak / 2, (
            f"{flow.__name__}: chunked peak {chunked_peak / 1e6:.1f} MB "
            f"not well below unchunked {full_peak / 1e6:.1f} MB"
        )


def test_chunked_compare_row(harness):
    row = harness.compare(300, seed=0, circuit_name="c880", chunk_size=100)
    assert row.num_samples == 300
    assert row.e_mu_percent < 2.0
    assert row.sigma_error_outputs_percent >= 0.0


def test_chunked_run_reproducible(harness):
    a = harness.run_reference(200, seed=17, chunk_size=64)
    b = harness.run_reference(200, seed=17, chunk_size=64)
    assert a.sta.mean_worst_delay() == b.sta.mean_worst_delay()
    assert a.sta.std_worst_delay() == b.sta.std_worst_delay()


def test_streaming_quantile_matches_exact_sorted(harness):
    """Differential check of the P² streamed quantile: a chunked run's
    streamed 95th percentile must agree with the exact sorted quantile of
    an unchunked run at the same size (within combined MC noise)."""
    chunked = harness.run_kle(
        2000, seed=17, chunk_size=250, quantiles=(0.95, 0.5)
    )
    exact = harness.run_kle(2000, seed=17)
    assert set(chunked.sta.tracked_quantiles) == {0.95, 0.5}
    for q in (0.5, 0.95):
        streamed = chunked.sta.quantile_worst_delay(q)
        sorted_exact = exact.sta.quantile_worst_delay(q)
        assert streamed == pytest.approx(sorted_exact, rel=0.02)
    assert (
        chunked.sta.quantile_worst_delay(0.95)
        > chunked.sta.quantile_worst_delay(0.5)
    )


def test_streaming_quantile_untracked_level_rejected(harness):
    run = harness.run_kle(200, seed=4, chunk_size=100, quantiles=(0.9,))
    with pytest.raises(KeyError, match="not tracked"):
        run.sta.quantile_worst_delay(0.75)


def test_chunked_wire_variation_run(wire_harness):
    run = wire_harness.run_kle(300, seed=5, chunk_size=90)
    assert run.sta.num_samples == 300
    assert run.sta.std_worst_delay() > 0.0


def _wire_seed(seed):
    """The wire stream's seed: the flow seed shifted twice."""
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(1)[0].spawn(1)[0]
    return seed + 2 * 0x9E3779B9


def _explicit_wire_flow(harness, flow, num_samples, seed, chunk_size):
    """The wire flow spelled out: generate, wire draws, ``engine.run``.

    One-shot runs hand the raw seed to one ``generate()`` and derive the
    wire seed afterwards; chunked runs thread one generator per stream
    through per-chunk calls.
    """
    from repro.field.sampling import CholeskySampleGenerator, KLESampleGenerator
    from repro.timing.ssta import StreamingSTAResult

    kernel = next(iter(harness.kernels.values()))
    kle = next(iter(harness.kles.values()))
    keys = list(harness.wire_sigma)
    if flow == "kle":
        generator = harness.kle_generator
        wire_generator = KLESampleGenerator({k: kle for k in keys}, r=harness.r)
    else:
        generator = harness.reference_generator
        wire_generator = CholeskySampleGenerator({k: kernel for k in keys})
    net_locations = harness.engine.net_driver_locations()

    def run_chunk(rows, sample_seed, wire_seed):
        samples = generator.generate(
            harness.gate_locations, rows, seed=sample_seed
        ).samples
        if wire_seed is None:
            wire_seed = _wire_seed(sample_seed)
        wires = wire_generator.generate(net_locations, rows, seed=wire_seed)
        scales = {
            k: np.clip(1.0 + s * wires.samples[k], 0.05, None)
            for k, s in harness.wire_sigma.items()
        }
        return harness.engine.run(samples, wire_scales=scales)

    if chunk_size is None:
        return run_chunk(num_samples, seed, None)
    rng = np.random.default_rng(seed)
    wire_rng = np.random.default_rng(_wire_seed(seed))
    moments = StreamingSTAResult()
    for start in range(0, num_samples, chunk_size):
        rows = min(chunk_size, num_samples - start)
        moments.update(run_chunk(rows, rng, wire_rng))
    return moments


@pytest.mark.parametrize("flow", ["kle", "reference"])
@pytest.mark.parametrize("chunk_size", [None, 20])
@pytest.mark.parametrize("seed_kind", ["int", "seed_sequence"])
def test_wire_flow_seed_policy_is_pinned(wire_harness, flow, chunk_size, seed_kind):
    """``run_kle``/``run_reference`` with wires equal the explicit loop bitwise."""

    def seed():
        if seed_kind == "int":
            return 4242
        return np.random.SeedSequence(4242)

    run = wire_harness.run_kle if flow == "kle" else wire_harness.run_reference
    served = run(50, seed=seed(), chunk_size=chunk_size).sta
    explicit = _explicit_wire_flow(wire_harness, flow, 50, seed(), chunk_size)
    assert served.num_samples == explicit.num_samples == 50
    if chunk_size is None:
        assert np.array_equal(served.worst_delay, explicit.worst_delay)
        for net, values in explicit.end_arrivals.items():
            assert np.array_equal(served.end_arrivals[net], values)
    else:
        assert served.mean_worst_delay() == explicit.mean_worst_delay()
        assert served.std_worst_delay() == explicit.std_worst_delay()
        assert served.output_sigma() == explicit.output_sigma()


def test_engine_parameter_forwarded(c880, c880_placement, gaussian_kernel, gaussian_kle):
    harness = MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=10,
        engine="reference",
    )
    assert harness.engine.engine == "reference"
    with pytest.raises(ValueError, match="engine must be one of"):
        MonteCarloSSTA(
            c880, c880_placement, gaussian_kernel, gaussian_kle, r=10,
            engine="vectorised",
        )


def test_streaming_empty_chunk_is_noop(harness):
    """A zero-sample chunk — first or final — must not poison the running
    moments with NaNs or divide by zero (the service layer emits empty
    chunks when a stream is torn down mid-sweep)."""
    import numpy as np

    from repro.timing.sta import STAResult
    from repro.timing.ssta import StreamingSTAResult

    real = harness.run_reference(40, seed=9).sta
    empty = STAResult(
        end_arrivals={net: np.empty(0) for net in real.end_arrivals},
        worst_delay=np.empty(0),
        num_samples=0,
    )

    # Empty first chunk: accumulator stays pristine and then fills normally.
    streaming = StreamingSTAResult(quantiles=(0.9,))
    streaming.update(empty)
    assert streaming.num_samples == 0
    streaming.update(real)
    assert streaming.num_samples == 40
    assert np.isfinite(streaming.mean_worst_delay())

    # Empty final chunk: every reported statistic is bitwise unchanged.
    before = (
        streaming.num_samples,
        streaming.mean_worst_delay(),
        streaming.std_worst_delay(),
        streaming.quantile_worst_delay(0.9),
        streaming.output_mean(),
        streaming.output_sigma(),
    )
    streaming.update(empty)
    after = (
        streaming.num_samples,
        streaming.mean_worst_delay(),
        streaming.std_worst_delay(),
        streaming.quantile_worst_delay(0.9),
        streaming.output_mean(),
        streaming.output_sigma(),
    )
    assert before == after


def test_streaming_single_sample_chunks_exact(harness):
    """Single-sample chunks through the Chan merge and P² path reproduce
    numpy's moments on the concatenated stream (the degenerate chunking the
    service batcher can produce at a request's tail)."""
    import numpy as np

    from repro.timing.sta import STAResult
    from repro.timing.ssta import StreamingSTAResult

    full = harness.run_reference(30, seed=3).sta
    streaming = StreamingSTAResult(quantiles=(0.5,))
    for i in range(full.num_samples):
        streaming.update(
            STAResult(
                end_arrivals={
                    net: values[i : i + 1]
                    for net, values in full.end_arrivals.items()
                },
                worst_delay=full.worst_delay[i : i + 1],
                num_samples=1,
            )
        )
    assert streaming.num_samples == full.num_samples
    assert streaming.mean_worst_delay() == pytest.approx(
        full.mean_worst_delay(), rel=1e-12
    )
    assert streaming.std_worst_delay() == pytest.approx(
        full.std_worst_delay(), rel=1e-10
    )
    for net in full.end_arrivals:
        assert streaming.output_mean()[net] == pytest.approx(
            float(np.mean(full.end_arrivals[net])), rel=1e-12
        )
        assert streaming.output_sigma()[net] == pytest.approx(
            float(np.std(full.end_arrivals[net])), rel=1e-10, abs=1e-12
        )
    # The P² estimate over 30 one-observation updates equals the exact
    # small-stream path fed the same values one at a time.
    assert np.isfinite(streaming.quantile_worst_delay(0.5))
