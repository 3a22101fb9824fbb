"""Tests for kernel extraction from (simulated) die measurements."""

import numpy as np
import pytest

from repro.core.extraction import (
    empirical_correlogram,
    extract_kernel,
    measurement_noise_floor,
)
from repro.core.kernels import ExponentialKernel, GaussianKernel
from repro.field.random_field import RandomField


@pytest.fixture(scope="module")
def measured_gaussian():
    """200 'dies' measured at 80 sites, ground truth Gaussian c = 2.7."""
    truth = GaussianKernel(2.7)
    rng = np.random.default_rng(17)
    points = rng.uniform(-1, 1, (80, 2))
    samples = RandomField(truth).sample(points, 200, seed=18)
    return truth, points, samples


def test_correlogram_shapes(measured_gaussian):
    _truth, points, samples = measured_gaussian
    correlogram = empirical_correlogram(points, samples, num_bins=20)
    assert correlogram.bin_centers.shape == (20,)
    assert correlogram.correlations.shape == (20,)
    assert correlogram.pair_counts.sum() == 80 * 79 // 2


def _difference_tensor_correlogram(points, samples, num_bins):
    """The correlogram as computed before ``pairwise_distances``: the same
    binning of pair distances from an ``(n, n, 2)`` difference tensor."""
    centered = samples - samples.mean(axis=0, keepdims=True)
    normalized = centered / centered.std(axis=0)
    corr = (normalized.T @ normalized) / samples.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    iu = np.triu_indices(len(points), k=1)
    pair_dist, pair_corr = dist[iu], corr[iu]
    edges = np.linspace(0.0, pair_dist.max() + 1e-12, num_bins + 1)
    bins = np.clip(
        np.searchsorted(edges, pair_dist, side="right") - 1, 0, num_bins - 1
    )
    counts = np.bincount(bins, minlength=num_bins)
    correlations = np.array(
        [pair_corr[bins == b].mean() if counts[b] else np.nan
         for b in range(num_bins)]
    )
    return 0.5 * (edges[:-1] + edges[1:]), correlations, counts


def test_correlogram_matches_the_difference_tensor_form():
    rng = np.random.default_rng(2024)
    points = rng.uniform(-1, 1, (50, 2))
    samples = rng.standard_normal((40, 50))
    correlogram = empirical_correlogram(points, samples, num_bins=15)
    centers, correlations, counts = _difference_tensor_correlogram(
        points, samples, 15
    )
    assert np.array_equal(correlogram.bin_centers, centers)
    assert np.array_equal(
        correlogram.correlations, correlations, equal_nan=True
    )
    assert np.array_equal(correlogram.pair_counts, counts)


def test_correlogram_tracks_truth(measured_gaussian):
    truth, points, samples = measured_gaussian
    correlogram = empirical_correlogram(points, samples, num_bins=15)
    mask = correlogram.valid_mask()
    predicted = truth.profile(correlogram.bin_centers[mask])
    residual = np.abs(correlogram.correlations[mask] - predicted)
    assert np.nanmax(residual) < 0.15


def test_correlogram_validation():
    with pytest.raises(ValueError, match="samples must be"):
        empirical_correlogram(np.zeros((4, 2)), np.zeros((10, 3)))
    with pytest.raises(ValueError, match="at least 3"):
        empirical_correlogram(np.zeros((4, 2)), np.zeros((2, 4)))


def test_extract_recovers_gaussian(measured_gaussian):
    truth, points, samples = measured_gaussian
    result = extract_kernel(points, samples)
    assert result.family == "gaussian"
    assert isinstance(result.kernel, GaussianKernel)
    assert result.kernel.c == pytest.approx(truth.c, rel=0.2)


def test_extract_recovers_exponential():
    truth = ExponentialKernel(1.8)
    rng = np.random.default_rng(21)
    points = rng.uniform(-1, 1, (70, 2))
    samples = RandomField(truth).sample(points, 300, seed=22)
    result = extract_kernel(points, samples)
    # Exponential truth: gaussian must NOT win; exponential or the flexible
    # Matérn (which contains it at s=1.5) should.
    assert result.family in ("exponential", "matern")
    assert result.fit.rmse < result.all_fits["gaussian"].rmse


def test_extract_reports_all_families(measured_gaussian):
    _truth, points, samples = measured_gaussian
    result = extract_kernel(
        points, samples, families=("gaussian", "exponential")
    )
    assert set(result.all_fits) == {"gaussian", "exponential"}
    assert result.fit.rmse == min(f.rmse for f in result.all_fits.values())


def test_extracted_kernel_usable_in_kle(measured_gaussian):
    """The extraction output plugs directly into the paper's flow."""
    from repro.core.galerkin import solve_kle
    from repro.mesh.structured import structured_rectangle_mesh

    _truth, points, samples = measured_gaussian
    result = extract_kernel(points, samples, families=("gaussian",))
    mesh = structured_rectangle_mesh(-1, -1, 1, 1, 8, 8)
    kle = solve_kle(result.kernel, mesh, num_eigenpairs=10)
    assert kle.eigenvalues[0] > 0


def test_extract_matern_family_runs(measured_gaussian):
    _truth, points, samples = measured_gaussian
    result = extract_kernel(points, samples, families=("matern",))
    assert result.family == "matern"
    assert result.fit.rmse < 0.2


def test_unknown_family_rejected(measured_gaussian):
    _truth, points, samples = measured_gaussian
    with pytest.raises(ValueError, match="unknown kernel family"):
        extract_kernel(points, samples, families=("cauchy",))


def test_noise_floor(measured_gaussian):
    _truth, points, samples = measured_gaussian
    correlogram = empirical_correlogram(points, samples)
    floor = measurement_noise_floor(correlogram, len(samples))
    assert 0.0 < floor < 0.1
    with pytest.raises(ValueError, match="at least 2"):
        measurement_noise_floor(correlogram, 1)


def test_extraction_with_few_dies_still_works():
    """Extraction degrades gracefully: 20 dies still recover c within 2x."""
    truth = GaussianKernel(2.7)
    rng = np.random.default_rng(30)
    points = rng.uniform(-1, 1, (60, 2))
    samples = RandomField(truth).sample(points, 20, seed=31)
    result = extract_kernel(points, samples, families=("gaussian",))
    assert 0.5 * truth.c < result.kernel.c < 2.0 * truth.c


# ---------------------------------------------------------------------------
# Anisotropy detection.
# ---------------------------------------------------------------------------
def test_isotropic_field_reported_isotropic(measured_gaussian):
    from repro.core.extraction import detect_anisotropy

    _truth, points, samples = measured_gaussian
    report = detect_anisotropy(points, samples)
    assert report.is_isotropic
    assert report.ratio < 1.25


def test_anisotropic_field_flagged_with_axis():
    import numpy as np

    from repro.core.extraction import detect_anisotropy
    from repro.core.kernels import AnisotropicGaussianKernel

    rng = np.random.default_rng(50)
    points = rng.uniform(-1, 1, (120, 2))
    kernel = AnisotropicGaussianKernel(1.0, 8.0, angle=0.0)
    samples = RandomField(kernel).sample(points, 300, seed=51)
    report = detect_anisotropy(points, samples)
    assert not report.is_isotropic
    assert report.ratio > 2.0
    # Major (slow-decay) axis near 0 mod pi.
    folded = min(report.angle, np.pi - report.angle)
    assert folded < np.pi / 3


def test_anisotropy_validation():
    import numpy as np

    from repro.core.extraction import detect_anisotropy

    with pytest.raises(ValueError, match="samples must be"):
        detect_anisotropy(np.zeros((5, 2)), np.zeros((10, 3)))
    with pytest.raises(ValueError, match="at least 2"):
        detect_anisotropy(
            np.random.default_rng(0).uniform(-1, 1, (30, 2)),
            np.random.default_rng(1).standard_normal((20, 30)),
            num_sectors=1,
        )
