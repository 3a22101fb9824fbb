"""TiledKernelOperator contract: tiled == assembled matrix.

The tiled operator is the load-bearing abstraction of the randomized
path — it must apply the matrix `assemble_galerkin_matrix` builds, for
every quadrature rule, to rounding under any tile size and with fixed
bits under each, while reporting honest working-set estimates.
"""

import numpy as np
import pytest

from repro.core.galerkin import assemble_galerkin_matrix
from repro.core.kernels import GaussianKernel
from repro.core.quadrature import get_rule
from repro.mesh.structured import structured_rectangle_mesh
from repro.solvers import (
    TiledKernelOperator,
    dense_solve_bytes,
    randomized_generalized_eigh,
    solve_randomized_kle,
)

KERNEL = GaussianKernel(c=1.4)


@pytest.fixture(scope="module")
def mesh():
    return structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 8, 8)


@pytest.fixture(scope="module")
def operand(mesh):
    rng = np.random.default_rng(42)
    return rng.standard_normal((mesh.num_triangles, 5))


@pytest.mark.parametrize("rule", ["centroid", "three_point"])
def test_tiled_matmat_matches_assembled_matrix(mesh, operand, rule):
    matrix = assemble_galerkin_matrix(KERNEL, mesh, rule=rule)
    tiled = TiledKernelOperator(KERNEL, mesh, rule=rule, max_tile_bytes=8192)
    np.testing.assert_allclose(
        tiled.matmat(operand), matrix @ operand, rtol=0, atol=1e-13
    )


def test_matmat_is_deterministic_per_tile_budget(mesh, operand):
    op = TiledKernelOperator(KERNEL, mesh, max_tile_bytes=8192)
    np.testing.assert_array_equal(op.matmat(operand), op.matmat(operand))


def test_tile_budgets_agree_to_rounding(mesh, operand):
    tiny = TiledKernelOperator(KERNEL, mesh, max_tile_bytes=1)
    huge = TiledKernelOperator(KERNEL, mesh, max_tile_bytes=1 << 30)
    assert tiny.tile_rows == 1
    assert huge.tile_rows == mesh.num_triangles
    np.testing.assert_allclose(
        tiny.matmat(operand), huge.matmat(operand), rtol=1e-12, atol=1e-15
    )


def test_peak_bytes_estimates_are_sane(mesh):
    n = mesh.num_triangles
    tiled = TiledKernelOperator(KERNEL, mesh, max_tile_bytes=8192)
    # Less than the assembled matrix alone.
    assert 0 < tiled.peak_bytes(8) < 8 * n * n
    # Bounded tiles: doubling the vector block must not scale the tile
    # term, only the vector term.
    assert tiled.peak_bytes(16) - tiled.peak_bytes(8) == 8 * 8 * (2 * n + n)
    with pytest.raises(ValueError, match="num_vectors"):
        tiled.peak_bytes(0)


def test_operand_shape_is_validated(mesh):
    op = TiledKernelOperator(KERNEL, mesh)
    with pytest.raises(ValueError, match="operand"):
        op.matmat(np.zeros((3, 2)))


def test_tile_budget_is_validated(mesh):
    with pytest.raises(ValueError, match="max_tile_bytes"):
        TiledKernelOperator(KERNEL, mesh, max_tile_bytes=0)


def test_dense_solve_bytes_counts_three_square_matrices():
    assert dense_solve_bytes(1000) == 3 * 1000 * 1000 * 8
    with pytest.raises(ValueError, match="num_triangles"):
        dense_solve_bytes(0)


# ---------------------------------------------------------------------------
# The operator as it was before its tiles came from gram_row_tiles: each
# tile was the broadcast call ``kernel(x[a:b, None, :], x[None, :, :])``
# times the weighted operand, in tiles of the same row rule.  BLAS may
# round a product differently for another tile shape, so the check is per
# budget, against the same host's BLAS.
# ---------------------------------------------------------------------------
def _broadcast_tile_matmat(kernel, mesh, rule, max_tile_bytes, block):
    rule = get_rule(rule)
    points, weights = rule.points_on_mesh(mesh)
    q, nodes = rule.num_points, len(points)
    operand = np.repeat(block, q, axis=0) * weights[:, None]
    rows = max(1, min(nodes, max_tile_bytes // (8 * nodes * 6)))
    accumulated = np.empty((nodes, block.shape[1]))
    for start in range(0, nodes, rows):
        stop = min(start + rows, nodes)
        gram = kernel(points[start:stop, None, :], points[None, :, :])
        np.matmul(gram, operand, out=accumulated[start:stop])
    accumulated *= weights[:, None]
    if q == 1:
        return accumulated
    return accumulated.reshape(mesh.num_triangles, q, -1).sum(axis=1)


class _BroadcastTileOperator(TiledKernelOperator):
    def matmat(self, block):
        return _broadcast_tile_matmat(
            self.kernel, self.mesh, self.rule.name, self.max_tile_bytes, block
        )


@pytest.mark.parametrize("budget", [8192, 200_000, 1 << 30])
@pytest.mark.parametrize("rule", ["centroid", "three_point"])
def test_tiled_matmat_is_the_broadcast_tile_product(
    mesh, operand, rule, budget
):
    """8,192 bytes gives one-row tiles; 200,000 bytes gives 32 rows for the
    centroid rule and 10 for the three-point rule, so some tiles split a
    triangle's nodes; 1 GiB gives one whole tile."""
    op = TiledKernelOperator(KERNEL, mesh, rule=rule, max_tile_bytes=budget)
    np.testing.assert_array_equal(
        op.matmat(operand),
        _broadcast_tile_matmat(KERNEL, mesh, rule, budget, operand),
    )


def test_randomized_solve_on_the_tiled_operator_matches_broadcast_tiles():
    """``solve_randomized_kle`` sketches on the tiled operator (default
    64 MiB tiles, four on 2,112 triangles); its eigenpairs are the bits of
    the same sketch on broadcast-call tiles."""
    mesh = structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 33, 32)
    result, _ = solve_randomized_kle(KERNEL, mesh, 16, seed=0)
    values, vectors, _ = randomized_generalized_eigh(
        _BroadcastTileOperator(KERNEL, mesh), mesh.areas, 16, seed=0
    )
    np.testing.assert_array_equal(result.eigenvalues, values)
    np.testing.assert_array_equal(result.d_vectors, vectors)
