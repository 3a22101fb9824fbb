"""Tests for the grid-based correlation model and its PCA reduction."""

import hashlib

import numpy as np
import pytest

from repro.core.kernels import GaussianKernel
from repro.field.grid_model import (
    GridModel,
    GridPCA,
    adhoc_taper_grid_model,
    grid_model_from_kernel,
)

DIE = (-1.0, -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def kernel_grid():
    return grid_model_from_kernel(GaussianKernel(2.7), DIE, 6, 6)


def test_cell_centers_layout():
    model = GridModel(DIE, 2, 2, np.eye(4))
    centers = model.cell_centers()
    assert centers.shape == (4, 2)
    assert np.allclose(centers[0], [-0.5, -0.5])
    assert np.allclose(centers[3], [0.5, 0.5])


def test_cell_of_points_row_major():
    model = GridModel(DIE, 2, 2, np.eye(4))
    pts = np.array([[-0.9, -0.9], [0.9, -0.9], [-0.9, 0.9], [0.9, 0.9]])
    assert model.cell_of_points(pts).tolist() == [0, 1, 2, 3]


def test_cell_of_points_boundary_clamped():
    model = GridModel(DIE, 3, 3, np.eye(9))
    assert model.cell_of_points(np.array([[1.0, 1.0]]))[0] == 8


def test_cell_of_points_outside_raises():
    model = GridModel(DIE, 2, 2, np.eye(4))
    with pytest.raises(ValueError, match="outside"):
        model.cell_of_points(np.array([[2.0, 0.0]]))


def test_kernel_grid_is_valid(kernel_grid):
    assert kernel_grid.is_valid()


def test_adhoc_taper_can_be_invalid():
    """The paper's §2.1 warning: intuitive grid correlations need not be
    PSD in 2-D."""
    model = adhoc_taper_grid_model(DIE, 8, 8, correlation_distance=1.0)
    assert not model.is_valid()


def test_adhoc_taper_correlation_is_pinned():
    """sha256 of the correlation built from a hand-rolled ``(n, n, 2)``
    difference tensor; ``pairwise_distances`` gives the same bits.  Only
    IEEE-rounded ``+``, ``-``, ``*``, ``/``, ``sqrt`` and ``clip`` reach
    these bits, so no math library or BLAS build can change the digest."""
    model = adhoc_taper_grid_model(DIE, 9, 7, correlation_distance=1.1)
    digest = hashlib.sha256(model.correlation.tobytes()).hexdigest()
    assert digest == (
        "6446bd359cdcbae431d00857266881bc30fad262bc87fd55bf56ca2c4ad0a49c"
    )


def test_repair_makes_valid():
    model = adhoc_taper_grid_model(DIE, 8, 8, correlation_distance=1.0)
    fixed = model.repaired()
    assert fixed.is_valid()
    assert np.allclose(np.diag(fixed.correlation), 1.0)


def test_repair_distorts_offdiagonals():
    model = adhoc_taper_grid_model(DIE, 8, 8, correlation_distance=1.0)
    fixed = model.repaired()
    assert not np.allclose(fixed.correlation, model.correlation, atol=1e-6)


def test_grid_model_validation():
    with pytest.raises(ValueError, match="positive-area"):
        GridModel((0, 0, 0, 1), 2, 2, np.eye(4))
    with pytest.raises(ValueError, match="at least one cell"):
        GridModel(DIE, 0, 2, np.eye(0))
    with pytest.raises(ValueError, match="correlation must be"):
        GridModel(DIE, 2, 2, np.eye(3))


# ---------------------------------------------------------------------------
# PCA reduction (paper eq. (1)).
# ---------------------------------------------------------------------------
def test_pca_eigen_descending(kernel_grid):
    pca = GridPCA(kernel_grid)
    assert np.all(np.diff(pca.eigenvalues) <= 1e-12)


def test_pca_full_rank_variance(kernel_grid):
    pca = GridPCA(kernel_grid)
    assert pca.variance_captured(kernel_grid.num_cells) == pytest.approx(1.0)


def test_pca_components_needed_monotone(kernel_grid):
    pca = GridPCA(kernel_grid)
    assert pca.components_needed(0.5) <= pca.components_needed(0.99)


def test_pca_reconstruction_matrix_reproduces_correlation(kernel_grid):
    pca = GridPCA(kernel_grid)
    full = pca.reconstruction_matrix(kernel_grid.num_cells)
    assert np.allclose(full @ full.T, kernel_grid.correlation, atol=1e-8)


def test_pca_sampling_statistics(kernel_grid):
    pca = GridPCA(kernel_grid)
    r = pca.components_needed(0.99)
    samples = pca.sample_cell_values(20000, r, seed=0)
    assert samples.shape == (20000, kernel_grid.num_cells)
    empirical = np.cov(samples.T)
    assert np.max(np.abs(empirical - kernel_grid.correlation)) < 0.08


def test_pca_sample_at_points(kernel_grid):
    pca = GridPCA(kernel_grid)
    pts = np.array([[-0.9, -0.9], [0.9, 0.9]])
    samples = pca.sample_at_points(pts, 30, 5, seed=1)
    assert samples.shape == (30, 2)
    cells = kernel_grid.cell_of_points(pts)
    direct = pca.sample_cell_values(30, 5, seed=1)
    assert np.allclose(samples, direct[:, cells])


def test_pca_same_cell_perfectly_correlated(kernel_grid):
    """The grid model's granularity artifact: two gates in one cell get
    identical values — exactly what the grid-less model avoids."""
    pca = GridPCA(kernel_grid)
    pts = np.array([[-0.95, -0.95], [-0.99, -0.99]])  # same corner cell
    samples = pca.sample_at_points(pts, 100, 10, seed=2)
    assert np.array_equal(samples[:, 0], samples[:, 1])


def test_pca_r_validation(kernel_grid):
    pca = GridPCA(kernel_grid)
    with pytest.raises(ValueError, match="r must be in"):
        pca.reconstruction_matrix(0)
    with pytest.raises(ValueError, match="fraction"):
        pca.components_needed(1.5)
    with pytest.raises(ValueError, match="num_samples"):
        pca.sample_cell_values(0, 2)
