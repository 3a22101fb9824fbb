"""Randomized eigensolver accuracy, determinism and routing contracts.

Accuracy is judged the only way that is well-posed for this spectrum:
eigenvalues individually (they are simple to compare), eigenvector
*blocks* via principal subspace angles split at a spectral gap — the
Gaussian kernel on a square die has degenerate pairs, so per-vector
comparison against LAPACK is meaningless while the spanned subspace is
not.
"""

import numpy as np
import pytest

from repro.core import galerkin
from repro.core.galerkin import solve_kle
from repro.core.kernels import GaussianKernel
from repro.mesh.structured import structured_rectangle_mesh
from repro.solvers import (
    RandomizedSolveReport,
    TiledKernelOperator,
    randomized_generalized_eigh,
    solve_randomized_kle,
)

KERNEL = GaussianKernel(c=1.4)
NUM_PAIRS = 16


def gap_boundary(eigenvalues, upper):
    """Largest-relative-gap split index in ``eigenvalues[1:upper+1]``.

    Comparing eigenvector blocks is only sign/rotation-invariant when the
    block boundary falls at a spectral gap; degenerate (multiplicity-2)
    pairs must never be split.
    """
    ratios = eigenvalues[1 : upper + 1] / eigenvalues[:upper]
    return int(np.argmin(ratios)) + 1


def principal_angles(block_a, block_b, phi):
    """Principal angles between two Φ-orthonormal column blocks."""
    overlap = block_a.T @ (phi[:, None] * block_b)
    singular = np.linalg.svd(overlap, compute_uv=False)
    return np.arccos(np.clip(singular, -1.0, 1.0))


@pytest.fixture(scope="module")
def mesh():
    return structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 9, 9)


@pytest.fixture(scope="module")
def dense_result(mesh):
    return solve_kle(KERNEL, mesh, num_eigenpairs=NUM_PAIRS)


@pytest.fixture(scope="module")
def randomized(mesh):
    return solve_randomized_kle(
        KERNEL, mesh, NUM_PAIRS, oversampling=12, power_iterations=3, seed=0
    )


def test_leading_eigenvalues_match_dense(dense_result, randomized):
    result, _ = randomized
    np.testing.assert_allclose(
        result.eigenvalues, dense_result.eigenvalues, rtol=1e-6
    )


def test_eigenvector_subspace_matches_dense(mesh, dense_result, randomized):
    result, _ = randomized
    split = gap_boundary(dense_result.eigenvalues, NUM_PAIRS - 1)
    angles = principal_angles(
        dense_result.d_vectors[:, :split],
        result.d_vectors[:, :split],
        mesh.areas,
    )
    assert angles.max() < 1e-5


def test_d_vectors_are_phi_orthonormal(mesh, randomized):
    result, _ = randomized
    gram = result.d_vectors.T @ (mesh.areas[:, None] * result.d_vectors)
    np.testing.assert_allclose(gram, np.eye(NUM_PAIRS), atol=1e-12)


def test_same_seed_is_bitwise_reproducible(mesh, randomized):
    result, _ = randomized
    again, _ = solve_randomized_kle(
        KERNEL, mesh, NUM_PAIRS, oversampling=12, power_iterations=3, seed=0
    )
    np.testing.assert_array_equal(result.eigenvalues, again.eigenvalues)
    np.testing.assert_array_equal(result.d_vectors, again.d_vectors)


def test_different_seed_changes_the_sketch(mesh, randomized):
    result, _ = randomized
    other, _ = solve_randomized_kle(
        KERNEL, mesh, NUM_PAIRS, oversampling=12, power_iterations=3, seed=1
    )
    assert not np.array_equal(result.d_vectors, other.d_vectors)
    # ...while agreeing to solver accuracy, which is the whole point.
    np.testing.assert_allclose(
        result.eigenvalues, other.eigenvalues, rtol=1e-5
    )


def test_report_describes_the_solve(mesh, randomized):
    _, report = randomized
    assert isinstance(report, RandomizedSolveReport)
    assert report.num_triangles == mesh.num_triangles
    assert report.num_eigenpairs == NUM_PAIRS
    assert report.sketch_size == NUM_PAIRS + 12
    assert report.power_iterations == 3
    assert report.seed == 0
    assert report.matmat_passes == 5
    assert report.resident_bytes == 8 * NUM_PAIRS * (mesh.num_triangles + 1)
    assert 0 < report.peak_bytes
    assert report.dense_bytes == 3 * mesh.num_triangles**2 * 8


def test_randomized_requires_explicit_rank(mesh, monkeypatch):
    """Above the size switch ``solve_kle`` runs the randomized solver,
    which computes leading pairs only: it needs ``num_eigenpairs``."""
    monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", 64)
    with pytest.raises(ValueError, match="num_eigenpairs"):
        solve_kle(KERNEL, mesh)


def test_option_validation(mesh):
    operator = TiledKernelOperator(KERNEL, mesh)
    phi = mesh.areas
    with pytest.raises(ValueError, match="num_eigenpairs"):
        randomized_generalized_eigh(operator, phi, 0)
    with pytest.raises(ValueError, match="num_eigenpairs"):
        randomized_generalized_eigh(operator, phi, mesh.num_triangles + 1)
    with pytest.raises(ValueError, match="oversampling"):
        randomized_generalized_eigh(operator, phi, 4, oversampling=-1)
    with pytest.raises(ValueError, match="power_iterations"):
        randomized_generalized_eigh(operator, phi, 4, power_iterations=-1)
    with pytest.raises(ValueError, match="seed"):
        randomized_generalized_eigh(operator, phi, 4, seed=-1)
    with pytest.raises(ValueError, match="phi_diag"):
        randomized_generalized_eigh(operator, phi[:-1], 4)
    with pytest.raises(ValueError, match="positive"):
        randomized_generalized_eigh(operator, np.zeros_like(phi), 4)
