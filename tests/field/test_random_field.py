"""Tests for the grid-less random-field model (exact Cholesky sampling)."""

import numpy as np
import pytest

from repro.core.kernels import GaussianKernel
from repro.field.random_field import RandomField

DIE = (-1.0, -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def field():
    return RandomField(GaussianKernel(2.7))


@pytest.fixture(scope="module")
def sample_points(rng=None):
    generator = np.random.default_rng(10)
    return generator.uniform(-1, 1, (40, 2))


def test_sample_shapes(field, sample_points):
    samples = field.sample(sample_points, 100, seed=0)
    assert samples.shape == (100, 40)


def test_sample_determinism(field, sample_points):
    a = field.sample(sample_points, 10, seed=5)
    b = field.sample(sample_points, 10, seed=5)
    assert np.array_equal(a, b)


def test_sample_covariance_matches_kernel(field, sample_points):
    """Empirical covariance of exact samples converges to K(points)."""
    samples = field.sample(sample_points, 40000, seed=1)
    empirical = np.cov(samples.T)
    expected = field.kernel.matrix(sample_points)
    assert np.max(np.abs(empirical - expected)) < 0.06


def test_cholesky_factor_reproduces_covariance(field, sample_points):
    upper = field.cholesky_factor(sample_points)
    assert np.allclose(
        upper.T @ upper, field.kernel.matrix(sample_points), atol=1e-8
    )


def test_precomputed_cholesky_matches(field, sample_points):
    upper = field.cholesky_factor(sample_points)
    a = field.sample(sample_points, 8, seed=3, cholesky_upper=upper)
    b = field.sample(sample_points, 8, seed=3)
    assert np.allclose(a, b)


def test_cholesky_shape_mismatch_rejected(field, sample_points):
    with pytest.raises(ValueError, match="does not match"):
        field.sample(sample_points, 4, cholesky_upper=np.eye(3))


def test_denormalization():
    field = RandomField(GaussianKernel(2.0), mean=90.0, std=5.0)
    pts = np.array([[0.0, 0.0], [0.5, 0.5]])
    samples = field.sample(pts, 20000, seed=2)
    assert samples.mean() == pytest.approx(90.0, abs=0.2)
    assert samples.std() == pytest.approx(5.0, abs=0.2)


def test_invalid_std_rejected():
    with pytest.raises(ValueError, match="std"):
        RandomField(GaussianKernel(1.0), std=0.0)


def test_sample_on_grid(field):
    points, samples = field.sample_on_grid(DIE, 12, 3, seed=4)
    assert points.shape == (144, 2)
    assert samples.shape == (3, 144)


def test_grid_outcomes_spatially_smooth(field):
    """Fig. 1(b) behaviour: neighbouring grid values are close, distant
    values are not systematically so."""
    points, samples = field.sample_on_grid(DIE, 20, 1, seed=6)
    outcome = samples[0].reshape(20, 20)
    neighbour_diff = np.abs(np.diff(outcome, axis=0)).mean()
    far_diff = np.abs(outcome[0] - outcome[-1]).mean()
    assert neighbour_diff < far_diff


def test_conditional_sampling_pins_observations(field):
    observed = np.array([[0.0, 0.0], [0.5, 0.5]])
    values = np.array([1.2, -0.4])
    samples = field.conditional_sample(observed, values, observed, 500, seed=7)
    assert np.allclose(samples.mean(axis=0), values, atol=0.05)
    assert samples.std(axis=0).max() < 0.05  # exact observations pin the field


def test_conditional_sampling_interpolates(field):
    """Midway between two observations the conditional mean lies between."""
    observed = np.array([[-0.2, 0.0], [0.2, 0.0]])
    values = np.array([1.0, 1.0])
    query = np.array([[0.0, 0.0]])
    samples = field.conditional_sample(observed, values, query, 2000, seed=8)
    assert samples.mean() == pytest.approx(1.0, abs=0.1)


def test_conditional_validation(field):
    with pytest.raises(ValueError, match="length mismatch"):
        field.conditional_sample(
            np.zeros((2, 2)), np.zeros(3), np.zeros((1, 2)), 5
        )
    with pytest.raises(ValueError, match="noise_variance"):
        field.conditional_sample(
            np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2)), 5,
            noise_variance=-1.0,
        )


def test_empirical_correlation_tracks_kernel(field):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (60, 2))
    samples = field.sample(pts, 5000, seed=12)
    centers, empirical, theoretical = field.empirical_correlation(
        samples, pts, num_bins=10
    )
    mask = ~np.isnan(empirical)
    assert np.max(np.abs(empirical[mask] - theoretical[mask])) < 0.12


def test_empirical_correlation_validates_shapes(field):
    with pytest.raises(ValueError, match=r"samples must be"):
        field.empirical_correlation(np.zeros((5, 3)), np.zeros((4, 2)))


def test_empirical_correlation_matches_the_difference_tensor_form(field):
    """Bin centres and correlations as computed before
    ``pairwise_distances``, from an ``(n, n, 2)`` difference tensor."""
    rng = np.random.default_rng(2024)
    points = rng.uniform(-1, 1, (50, 2))
    samples = rng.standard_normal((40, 50))
    centered = samples - samples.mean(axis=0, keepdims=True)
    centered = centered / centered.std(axis=0)
    corr = (centered.T @ centered) / len(samples)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    iu = np.triu_indices(len(points), k=1)
    dist_flat, corr_flat = dist[iu], corr[iu]
    edges = np.linspace(0.0, dist_flat.max() + 1e-12, 13)
    expected = np.full(12, np.nan)
    for b in range(12):
        mask = (dist_flat >= edges[b]) & (dist_flat < edges[b + 1])
        if mask.any():
            expected[b] = corr_flat[mask].mean()
    centers, empirical, _ = field.empirical_correlation(
        samples, points, num_bins=12
    )
    assert np.array_equal(centers, 0.5 * (edges[:-1] + edges[1:]))
    assert np.array_equal(empirical, expected, equal_nan=True)
