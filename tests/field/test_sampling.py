"""Tests for the Algorithm 1 / Algorithm 2 sample generators."""

import numpy as np
import pytest
import scipy.linalg

from repro.core.kernels import GaussianKernel
from repro.field.sampling import (
    CholeskySampleGenerator,
    KLESampleGenerator,
    _mix_parameters,
)
from repro.utils.rng import spawn_generators


@pytest.fixture(scope="module")
def gate_locations():
    rng = np.random.default_rng(21)
    return rng.uniform(-0.95, 0.95, (50, 2))


@pytest.fixture(scope="module")
def kernels(gaussian_kernel):
    return {name: gaussian_kernel for name in ("L", "W", "Vt", "tox")}


def test_cholesky_generator_shapes(kernels, gate_locations):
    generator = CholeskySampleGenerator(kernels)
    result = generator.generate(gate_locations, 30, seed=0)
    assert set(result.samples) == {"L", "W", "Vt", "tox"}
    for matrix in result.samples.values():
        assert matrix.shape == (30, 50)
    assert result.total_seconds >= 0.0


def test_cholesky_parameters_mutually_independent(kernels, gate_locations):
    generator = CholeskySampleGenerator(kernels)
    result = generator.generate(gate_locations, 20000, seed=1)
    l_vals = result.samples["L"][:, 0]
    w_vals = result.samples["W"][:, 0]
    assert abs(np.corrcoef(l_vals, w_vals)[0, 1]) < 0.03


def test_cholesky_covariance_matches_kernel(kernels, gate_locations, gaussian_kernel):
    generator = CholeskySampleGenerator(kernels)
    result = generator.generate(gate_locations, 30000, seed=2)
    empirical = np.cov(result.samples["L"].T)
    expected = gaussian_kernel.matrix(gate_locations)
    assert np.max(np.abs(empirical - expected)) < 0.07


def test_cholesky_setup_cached(kernels, gate_locations):
    generator = CholeskySampleGenerator(kernels)
    first = generator.generate(gate_locations, 5, seed=3)
    second = generator.generate(gate_locations, 5, seed=3)
    assert first.setup_seconds > 0.0
    assert second.setup_seconds == 0.0
    # Shared kernel object -> one factorization for all four parameters.
    assert len(generator._factor_cache) == 1


def test_cholesky_relocation_invalidates_cache(kernels, gate_locations):
    generator = CholeskySampleGenerator(kernels)
    generator.generate(gate_locations, 5, seed=3)
    moved = gate_locations + 0.01
    again = generator.generate(moved, 5, seed=3)
    assert again.setup_seconds > 0.0


def _gemm_reference(generator, gate_locations, num_samples, seed):
    """Algorithm 1 with the dense product ``normals @ upper``."""
    generator.prepare(gate_locations)
    generators = spawn_generators(seed, len(generator.kernels))
    raw = {}
    for (name, kernel), rng in zip(generator.kernels.items(), generators):
        upper = generator._factor_cache[id(kernel)]
        raw[name] = rng.standard_normal((num_samples, upper.shape[0])) @ upper
    return _mix_parameters(raw, generator._cross_upper)


@pytest.mark.parametrize("case", ["one_sample", "jittered", "mixed"])
def test_triangular_product_matches_the_dense_product(
    case, kernels, gate_locations, gaussian_kernel
):
    """The triangular multiply sums in another order than the GEMM, so
    the samples agree to rounding, not bitwise."""
    num_samples = 1 if case == "one_sample" else 200
    locations = gate_locations
    cross = None
    if case == "jittered":
        # Repeated gates make the covariance singular: the plain
        # factorization fails and the jittered one is used.
        locations = np.vstack([gate_locations, gate_locations[:5]])
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cholesky(gaussian_kernel.matrix(locations))
    if case == "mixed":
        cross = _cross_matrix(-0.6)
    generator = CholeskySampleGenerator(kernels, cross_correlation=cross)
    result = generator.generate(locations, num_samples, seed=13)
    expected = _gemm_reference(generator, locations, num_samples, seed=13)
    for name, matrix in result.samples.items():
        assert matrix.shape == (num_samples, len(locations))
        assert matrix.flags.c_contiguous
        np.testing.assert_allclose(matrix, expected[name], rtol=0, atol=1e-12)


def test_kle_generator_shapes(gaussian_kle, gate_locations):
    generator = KLESampleGenerator(
        {name: gaussian_kle for name in ("L", "W", "Vt", "tox")}, r=20
    )
    result = generator.generate(gate_locations, 40, seed=4)
    for matrix in result.samples.values():
        assert matrix.shape == (40, 50)


def test_kle_generator_default_r_uses_criterion(gaussian_kle, gate_locations):
    generator = KLESampleGenerator({"L": gaussian_kle})
    assert generator.r["L"] == gaussian_kle.select_truncation()


def test_kle_covariance_matches_model_and_kernel(
    gaussian_kle, gate_locations, gaussian_kernel
):
    r = gaussian_kle.select_truncation()
    generator = KLESampleGenerator({"L": gaussian_kle}, r=r)
    result = generator.generate(gate_locations, 30000, seed=5)
    empirical = np.cov(result.samples["L"].T)
    # Tight agreement with the KLE's own triangle-level covariance
    # (only MC noise separates them) ...
    tri = gaussian_kle.locator.locate_many(gate_locations)
    model = gaussian_kle.covariance_on_triangles(r=r)[np.ix_(tri, tri)]
    assert np.max(np.abs(empirical - model)) < 0.07
    # ... and agreement with the kernel up to the O(h) piecewise-constant
    # bias of the coarse test mesh (h ~ 0.28 here).
    expected = gaussian_kernel.matrix(gate_locations)
    h = gaussian_kle.mesh.max_side()
    assert np.max(np.abs(empirical - expected)) < 1.2 * h


def test_kle_same_triangle_gates_identical(gaussian_kle):
    """Algorithm 2 assigns one value per triangle: co-located gates match."""
    pts = np.array([[0.01, 0.01], [0.012, 0.012]])
    generator = KLESampleGenerator({"L": gaussian_kle}, r=10)
    result = generator.generate(pts, 50, seed=6)
    tri = gaussian_kle.locator.locate_many(pts)
    if tri[0] == tri[1]:
        assert np.array_equal(
            result.samples["L"][:, 0], result.samples["L"][:, 1]
        )


def test_kle_parameters_independent(gaussian_kle, gate_locations):
    generator = KLESampleGenerator(
        {"L": gaussian_kle, "Vt": gaussian_kle}, r=15
    )
    result = generator.generate(gate_locations, 20000, seed=7)
    corr = np.corrcoef(
        result.samples["L"][:, 0], result.samples["Vt"][:, 0]
    )[0, 1]
    assert abs(corr) < 0.03


def test_generators_deterministic(kernels, gaussian_kle, gate_locations):
    for generator in (
        CholeskySampleGenerator(kernels),
        KLESampleGenerator({"L": gaussian_kle}, r=5),
    ):
        a = generator.generate(gate_locations, 10, seed=42).samples
        b = generator.generate(gate_locations, 10, seed=42).samples
        for name in a:
            assert np.array_equal(a[name], b[name])


def test_empty_parameter_maps_rejected():
    with pytest.raises(ValueError, match="at least one"):
        CholeskySampleGenerator({})
    with pytest.raises(ValueError, match="at least one"):
        KLESampleGenerator({})


def test_bad_r_rejected(gaussian_kle):
    with pytest.raises(ValueError, match="outside"):
        KLESampleGenerator({"L": gaussian_kle}, r=10_000)


def test_bad_num_samples_rejected(kernels, gaussian_kle, gate_locations):
    with pytest.raises(ValueError, match="num_samples"):
        CholeskySampleGenerator(kernels).generate(gate_locations, 0)
    with pytest.raises(ValueError, match="num_samples"):
        KLESampleGenerator({"L": gaussian_kle}, r=3).generate(
            gate_locations, 0
        )


# ---------------------------------------------------------------------------
# Cross-correlated parameters (the C ⊗ K extension).
# ---------------------------------------------------------------------------
def _cross_matrix(rho):
    c = np.eye(4)
    c[0, 1] = c[1, 0] = rho  # L-W coupling
    return c


def test_cross_correlation_cholesky_generator(kernels, gate_locations):
    generator = CholeskySampleGenerator(
        kernels, cross_correlation=_cross_matrix(-0.6)
    )
    result = generator.generate(gate_locations, 20000, seed=10)
    l_vals = result.samples["L"][:, 0]
    w_vals = result.samples["W"][:, 0]
    assert np.corrcoef(l_vals, w_vals)[0, 1] == pytest.approx(-0.6, abs=0.03)
    # Uncoupled pair stays independent.
    vt = result.samples["Vt"][:, 0]
    assert abs(np.corrcoef(l_vals, vt)[0, 1]) < 0.03
    # Marginals stay unit-variance.
    assert w_vals.std() == pytest.approx(1.0, abs=0.03)


def test_cross_correlation_kle_generator(gaussian_kle, gate_locations):
    kles = {name: gaussian_kle for name in ("L", "W", "Vt", "tox")}
    generator = KLESampleGenerator(
        kles, r=20, cross_correlation=_cross_matrix(0.7)
    )
    result = generator.generate(gate_locations, 20000, seed=11)
    l_vals = result.samples["L"][:, 3]
    w_vals = result.samples["W"][:, 3]
    assert np.corrcoef(l_vals, w_vals)[0, 1] == pytest.approx(0.7, abs=0.04)


def test_cross_correlation_preserves_spatial_structure(
    kernels, gate_locations, gaussian_kernel
):
    """The coupled model is separable: spatial correlation is unchanged."""
    generator = CholeskySampleGenerator(
        kernels, cross_correlation=_cross_matrix(0.5)
    )
    result = generator.generate(gate_locations, 30000, seed=12)
    empirical = np.cov(result.samples["W"].T)
    expected = gaussian_kernel.matrix(gate_locations)
    assert np.max(np.abs(empirical - expected)) < 0.08


def test_cross_correlation_validation(kernels, gaussian_kernel, gaussian_kle):
    with pytest.raises(ValueError, match="must be \\(4, 4\\)"):
        CholeskySampleGenerator(kernels, cross_correlation=np.eye(3))
    bad = np.eye(4)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        CholeskySampleGenerator(kernels, cross_correlation=bad)
    bad_diag = np.eye(4) * 2.0
    with pytest.raises(ValueError, match="unit diagonal"):
        CholeskySampleGenerator(kernels, cross_correlation=bad_diag)
    # Distinct kernel objects: the separable model is ill-defined.
    from repro.core.kernels import GaussianKernel

    distinct = {
        "L": GaussianKernel(2.7),
        "W": GaussianKernel(2.7),
        "Vt": gaussian_kernel,
        "tox": gaussian_kernel,
    }
    with pytest.raises(ValueError, match="share one"):
        CholeskySampleGenerator(distinct, cross_correlation=np.eye(4))


# ---------------------------------------------------------------------------
# Variance-reduced sampling (antithetic / Sobol QMC).
# ---------------------------------------------------------------------------
def test_antithetic_pairs_mirror(gaussian_kle, gate_locations):
    generator = KLESampleGenerator(
        {"L": gaussian_kle}, r=10, sampler="antithetic"
    )
    result = generator.generate(gate_locations, 40, seed=1)
    values = result.samples["L"]
    assert np.allclose(values[:20], -values[20:])


def test_antithetic_odd_sample_count(gaussian_kle, gate_locations):
    generator = KLESampleGenerator(
        {"L": gaussian_kle}, r=10, sampler="antithetic"
    )
    result = generator.generate(gate_locations, 41, seed=1)
    assert result.samples["L"].shape == (41, 50)


def test_sobol_marginals_standard_normal(gaussian_kle, gate_locations):
    generator = KLESampleGenerator(
        {"L": gaussian_kle}, r=15, sampler="sobol"
    )
    result = generator.generate(gate_locations, 1024, seed=2)
    values = result.samples["L"]
    assert abs(values.mean()) < 0.05
    assert values.var(axis=0).mean() == pytest.approx(1.0, abs=0.08)


def test_sobol_parameters_stay_independent(gaussian_kle, gate_locations):
    """The joint-engine construction must not correlate distinct
    parameters (the independently-scrambled-engines pitfall)."""
    kles = {name: gaussian_kle for name in ("L", "W", "Vt", "tox")}
    generator = KLESampleGenerator(kles, r=15, sampler="sobol")
    result = generator.generate(gate_locations, 4096, seed=3)
    for other in ("W", "Vt", "tox"):
        corr = np.corrcoef(
            result.samples["L"][:, 0], result.samples[other][:, 0]
        )[0, 1]
        assert abs(corr) < 0.06


def test_sobol_beats_pseudo_on_mean_estimation(gaussian_kle, gate_locations):
    """QMC pays off in the reduced dimension: the per-location mean
    estimate converges visibly faster than pseudo-MC."""
    kles = {"L": gaussian_kle}
    errors = {}
    for sampler in ("pseudo", "sobol"):
        reps = []
        for rep in range(6):
            generator = KLESampleGenerator(kles, r=20, sampler=sampler)
            values = generator.generate(
                gate_locations, 256, seed=100 + rep
            ).samples["L"]
            reps.append(np.abs(values.mean(axis=0)).mean())
        errors[sampler] = float(np.mean(reps))
    assert errors["sobol"] < 0.5 * errors["pseudo"]


def test_unknown_sampler_rejected(gaussian_kle):
    with pytest.raises(ValueError, match="sampler must be"):
        KLESampleGenerator({"L": gaussian_kle}, r=5, sampler="halton")
