"""Tests for the Galerkin discretization and eigensolve (paper §3.2/§4)."""

import numpy as np
import pytest

from repro.core import galerkin, kernels
from repro.core.analytic import separable_exponential_kle_2d
from repro.core.galerkin import (
    assemble_galerkin_matrix,
    kle_eigensolver,
    solve_kle,
)
from repro.core.kernel_fit import paper_experiment_kernel
from repro.core.kernels import (
    DEFAULT_TILE_BYTES,
    GaussianKernel,
    MaternBesselKernel,
    SeparableExponentialKernel,
)
from repro.core.quadrature import get_rule
from repro.mesh.refine import paper_mesh
from repro.mesh.structured import structured_rectangle_mesh
from repro.solvers import solve_randomized_kle
from repro.utils.linalg import symmetric_generalized_eigh

DIE = (-1.0, -1.0, 1.0, 1.0)


def test_centroid_assembly_matches_paper_formula(small_structured_mesh):
    """With the centroid rule, K_ik = K(c_i, c_k) a_i a_k exactly (eq. 21)."""
    kernel = GaussianKernel(2.0)
    mesh = small_structured_mesh
    matrix = assemble_galerkin_matrix(kernel, mesh, rule="centroid")
    i, k = 3, 17
    expected = float(
        kernel(mesh.centroids[i], mesh.centroids[k])
        * mesh.areas[i]
        * mesh.areas[k]
    )
    assert matrix[i, k] == pytest.approx(expected, rel=1e-12)


def test_assembled_matrix_is_symmetric(small_structured_mesh):
    matrix = assemble_galerkin_matrix(
        GaussianKernel(2.7), small_structured_mesh
    )
    assert np.array_equal(matrix, matrix.T)


@pytest.mark.parametrize("rule", ["centroid", "three_point", "seven_point"])
def test_higher_order_rules_assemble_symmetric(rule):
    mesh = structured_rectangle_mesh(*DIE, 4, 4)
    matrix = assemble_galerkin_matrix(GaussianKernel(2.0), mesh, rule=rule)
    assert matrix.shape == (mesh.num_triangles, mesh.num_triangles)
    assert np.allclose(matrix, matrix.T, atol=1e-12)


def test_higher_order_rule_integrates_entries_better():
    """Higher-order quadrature computes the double integral of eq. (18)
    more accurately than the centroid rule — the paper's §4.2 trade-off.

    Reference: the same entry assembled with the degree-5 rule on a 4×
    subdivided pair of triangles.
    """
    kernel = GaussianKernel(2.7)
    coarse = structured_rectangle_mesh(*DIE, 3, 3)
    fine = structured_rectangle_mesh(*DIE, 12, 12)
    # Entry (i, i): the self-integral over one coarse triangle equals the
    # sum over its 16 fine sub-triangles of the fine-matrix block.
    reference_matrix = assemble_galerkin_matrix(kernel, fine, rule="seven_point")
    # Map fine triangles to coarse ones via centroids.
    from repro.mesh.locate import TriangleLocator

    locator = TriangleLocator(coarse)
    owner = locator.locate_many(fine.centroids)
    i, k = 0, 4
    mask_i = owner == i
    mask_k = owner == k
    reference = float(reference_matrix[np.ix_(mask_i, mask_k)].sum())
    centroid = assemble_galerkin_matrix(kernel, coarse, rule="centroid")[i, k]
    three = assemble_galerkin_matrix(kernel, coarse, rule="three_point")[i, k]
    assert abs(three - reference) < abs(centroid - reference)


def test_eigenvalues_descending_and_nonnegative(gaussian_kle):
    eigvals = gaussian_kle.eigenvalues
    assert np.all(np.diff(eigvals) <= 1e-12)
    assert eigvals[0] > 0.0
    # The Gaussian kernel is strictly PD; leading eigenvalues stay positive.
    assert np.all(eigvals[:20] > 0.0)


def test_eigenvalue_sum_equals_die_area():
    """Mercer: Σλ_j = ∫K(x,x)dx = |D| = 4; the full Galerkin spectrum
    reproduces that exactly (trace preservation)."""
    mesh = structured_rectangle_mesh(*DIE, 8, 8)
    kle = solve_kle(GaussianKernel(2.7), mesh)  # all eigenpairs
    assert float(np.sum(kle.eigenvalues)) == pytest.approx(4.0, rel=1e-9)


def test_matches_analytic_separable_kernel(separable_kle):
    """Validation against the Ghanem–Spanos closed form (< 2 % on the
    leading pairs at this mesh resolution)."""
    analytic = separable_exponential_kle_2d(1.0, 1.0, 6)
    for j, pair in enumerate(analytic):
        rel = abs(separable_kle.eigenvalues[j] - pair.eigenvalue)
        assert rel / pair.eigenvalue < 0.03


def test_mesh_convergence_toward_analytic():
    """Eigenvalue error decreases as the mesh refines (Theorem 2 spirit)."""
    kernel = SeparableExponentialKernel(1.0)
    truth = separable_exponential_kle_2d(1.0, 1.0, 1)[0].eigenvalue
    errors = []
    for cells in (4, 8, 16):
        mesh = structured_rectangle_mesh(*DIE, cells, cells)
        kle = solve_kle(kernel, mesh, num_eigenpairs=1)
        errors.append(abs(kle.eigenvalues[0] - truth))
    assert errors[0] > errors[1] > errors[2]


def test_matern_kernel_solvable():
    """The whole point of the paper: eq. (6) kernels have no analytic KLE,
    but the numerical flow handles them."""
    mesh = structured_rectangle_mesh(*DIE, 8, 8)
    kle = solve_kle(MaternBesselKernel(b=2.0, s=2.5), mesh, num_eigenpairs=10)
    assert kle.eigenvalues[0] > kle.eigenvalues[5] > 0.0


def test_num_eigenpairs_truncation():
    mesh = structured_rectangle_mesh(*DIE, 6, 6)
    kle = solve_kle(GaussianKernel(2.0), mesh, num_eigenpairs=7)
    assert kle.num_eigenpairs == 7
    assert kle.d_vectors.shape == (mesh.num_triangles, 7)


def test_num_eigenpairs_larger_than_n_clamped():
    mesh = structured_rectangle_mesh(*DIE, 2, 2)  # 8 triangles
    kle = solve_kle(GaussianKernel(2.0), mesh, num_eigenpairs=100)
    assert kle.num_eigenpairs == 8


def test_empty_mesh_rejected():
    with pytest.raises(ValueError, match="at least one point|empty"):
        from repro.mesh.delaunay import delaunay_mesh

        delaunay_mesh(np.zeros((0, 2)))


def test_eigenfunctions_phi_orthonormal(gaussian_kle):
    """dᵀ Φ d = I: the discrete form of eigenfunction orthonormality."""
    mesh = gaussian_kle.mesh
    gram = gaussian_kle.d_vectors.T @ (
        mesh.areas[:, None] * gaussian_kle.d_vectors
    )
    assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-9)


def test_eigen_equation_residual_small(gaussian_kle):
    """K d ≈ λ Φ d for the computed pairs."""
    from repro.core.galerkin import assemble_galerkin_matrix

    mesh = gaussian_kle.mesh
    k_matrix = assemble_galerkin_matrix(gaussian_kle.kernel, mesh)
    for j in (0, 3, 10):
        d = gaussian_kle.d_vectors[:, j]
        lhs = k_matrix @ d
        rhs = gaussian_kle.eigenvalues[j] * (mesh.areas * d)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_blocked_assembly_matches_unblocked():
    """Any row-tile budget gives the bits of one whole-matrix tile, also
    when a tile splits a triangle's quadrature nodes (1-row tiles, and
    7 or 3 rows for the three- and seven-point rules)."""
    mesh = structured_rectangle_mesh(*DIE, 3, 3)
    kernel = GaussianKernel(2.0)
    for rule in ("three_point", "seven_point"):
        one_shot = assemble_galerkin_matrix(
            kernel, mesh, rule=rule, max_tile_bytes=1 << 30
        )
        for budget in (1, 20_000):
            small_blocks = assemble_galerkin_matrix(
                kernel, mesh, rule=rule, max_tile_bytes=budget
            )
            assert np.array_equal(small_blocks, one_shot)


def test_kle_eigensolver_switches_above_4096_triangles():
    assert kle_eigensolver(1) == "dense"
    assert kle_eigensolver(4096) == "dense"
    assert kle_eigensolver(4097) == "randomized"


@pytest.fixture()
def switch_at_64(monkeypatch):
    """Move the size switch to 64 triangles, so small meshes reach the
    randomized route."""
    monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", 64)


@pytest.mark.parametrize("rule", ["centroid", "three_point"])
def test_solve_kle_above_the_switch_is_the_randomized_solve(switch_at_64, rule):
    mesh = structured_rectangle_mesh(*DIE, 6, 6)  # 72 triangles
    kernel = GaussianKernel(1.4)
    assert kle_eigensolver(mesh.num_triangles) == "randomized"
    kle = solve_kle(kernel, mesh, num_eigenpairs=10, rule=rule)
    expected, _ = solve_randomized_kle(kernel, mesh, 10, rule=rule)
    np.testing.assert_array_equal(kle.eigenvalues, expected.eigenvalues)
    np.testing.assert_array_equal(kle.d_vectors, expected.d_vectors)


@pytest.mark.parametrize("rule", ["centroid", "three_point"])
def test_solve_kle_at_the_switch_is_the_dense_solve(switch_at_64, rule):
    mesh = structured_rectangle_mesh(*DIE, 4, 8)  # 64 triangles
    kernel = GaussianKernel(1.4)
    assert kle_eigensolver(mesh.num_triangles) == "dense"
    kle = solve_kle(kernel, mesh, num_eigenpairs=10, rule=rule)
    values, vectors = symmetric_generalized_eigh(
        assemble_galerkin_matrix(kernel, mesh, rule=rule),
        mesh.areas,
        num_eigenpairs=10,
    )
    np.testing.assert_array_equal(kle.eigenvalues, values)
    np.testing.assert_array_equal(kle.d_vectors, vectors)


def test_tiled_centroid_assembly_matches_one_shot(small_refined_mesh):
    """Centroid entries are pure elementwise evaluations, so even 1-row
    tiles give the bits of one whole-matrix tile."""
    kernel = GaussianKernel(2.0)
    for mesh in (structured_rectangle_mesh(*DIE, 8, 8), small_refined_mesh):
        one_shot = assemble_galerkin_matrix(kernel, mesh, max_tile_bytes=1 << 30)
        tiled = assemble_galerkin_matrix(kernel, mesh, max_tile_bytes=4096)
        assert np.array_equal(tiled, one_shot)
        assert np.array_equal(tiled, tiled.T)


# ---------------------------------------------------------------------------
# The assembly as it was before every rule ran on one row-tile loop: the
# centroid rule scaled the symmetrized one-shot ``kernel.matrix(c)`` by the
# areas, and a q-point rule reduced one whole-matrix evaluation of its
# nodes (its old 256 MiB row blocks held every node of these meshes).  The
# tiled assembly must give these bits under any budget.  Both sides run
# the same elementwise kernel evaluations on the running host, so no
# host-specific digest is involved.
# ---------------------------------------------------------------------------
def _one_shot_assembly(kernel, mesh, rule):
    rule = get_rule(rule)
    if rule.num_points == 1:
        result = kernel.matrix(mesh.centroids)
        result *= mesh.areas[:, None]
        result *= mesh.areas
        return 0.5 * (result + result.T)
    points, weights = rule.points_on_mesh(mesh)
    n, q = mesh.num_triangles, rule.num_points
    block = kernel.matrix(points, points) * weights[:, None] * weights[None, :]
    rows = block.reshape(len(points), n, q).sum(axis=2)
    result = np.zeros((n, n))
    np.add.at(result, np.repeat(np.arange(n), q), rows)
    return 0.5 * (result + result.T)


#: One instance of every kernel class in :mod:`repro.core.kernels`.
EVERY_KERNEL = {
    "gaussian": kernels.GaussianKernel(2.0),
    "exponential": kernels.ExponentialKernel(1.3),
    "separable_exponential": kernels.SeparableExponentialKernel(1.0),
    "radial_exponential": kernels.RadialExponentialKernel(0.8),
    "matern_bessel": kernels.MaternBesselKernel(b=2.0, s=2.5),
    "linear_cone": kernels.LinearConeKernel(rho=1.0),
    "spherical": kernels.SphericalKernel(rho=1.5),
    "scaled": kernels.ScaledKernel(kernels.GaussianKernel(1.0), 0.7),
    "sum": kernels.SumKernel(
        kernels.GaussianKernel(2.0), kernels.ExponentialKernel(1.0)
    ),
    "product": kernels.ProductKernel(
        kernels.GaussianKernel(1.0), kernels.SphericalKernel(2.0)
    ),
    "anisotropic_gaussian": kernels.AnisotropicGaussianKernel(
        3.0, 0.5, angle=0.4
    ),
    "nonstationary_variance": kernels.NonstationaryVarianceKernel(
        kernels.GaussianKernel(2.0), lambda p: 1.0 + 0.2 * p[..., 0]
    ),
    "nugget": kernels.NuggetKernel(),
}


@pytest.mark.parametrize("rule", ["centroid", "three_point", "seven_point"])
@pytest.mark.parametrize("name", sorted(EVERY_KERNEL))
def test_every_kernel_and_rule_assembles_the_one_shot_matrix(name, rule):
    """One default tile, and tiles of 70 centroid, 23 three-point or 10
    seven-point rows, give the one-shot bits.  The 8 × 8 mesh's areas are
    all 1/32, so scaling by them is exact: the nonstationary kernel, whose
    ``K(x, y)`` and ``K(y, x)`` can differ in the last bit, matches the
    symmetrized one-shot matrix here but not on meshes of unequal areas."""
    mesh = structured_rectangle_mesh(*DIE, 8, 8)
    kernel = EVERY_KERNEL[name]
    expected = _one_shot_assembly(kernel, mesh, rule)
    for budget in (DEFAULT_TILE_BYTES, 430_080):
        matrix = assemble_galerkin_matrix(
            kernel, mesh, rule=rule, max_tile_bytes=budget
        )
        assert np.array_equal(matrix, expected)


def test_every_kernel_lists_each_kernel_class():
    classes = {
        cls
        for cls in vars(kernels).values()
        if isinstance(cls, type)
        and issubclass(cls, kernels.CovarianceKernel)
        and not getattr(cls, "__abstractmethods__", None)
    }
    assert classes == {type(kernel) for kernel in EVERY_KERNEL.values()}


def test_paper_mesh_assembly_matches_the_one_shot_matrix():
    """The paper's kernel and mesh (1,580 triangles, centroid rule): the
    default budget makes tiles of 884 and 696 rows."""
    kernel, mesh = paper_experiment_kernel(), paper_mesh()
    expected = _one_shot_assembly(kernel, mesh, "centroid")
    assert np.array_equal(assemble_galerkin_matrix(kernel, mesh), expected)


def test_2112_triangle_centroid_assembly_matches_the_one_shot_matrix():
    """Above the 2,048 triangles where the centroid rule had its own tiled
    fill (the Gaussian's ``K`` is exactly symmetric, so that fill had the
    one-shot bits); the default budget makes four tiles."""
    mesh = structured_rectangle_mesh(*DIE, 33, 32)
    assert mesh.num_triangles == 2112
    kernel = GaussianKernel(1.4)
    expected = _one_shot_assembly(kernel, mesh, "centroid")
    assert np.array_equal(assemble_galerkin_matrix(kernel, mesh), expected)
