"""Matrix-free application of the Galerkin kernel matrix.

The Galerkin discretization of the KLE eigenproblem (paper eq. (13))
needs the action of the symmetric matrix

    K_ik = ∬ K(x, y) dx dy  ≈  Σ_s Σ_t w_is w_kt K(p_is, p_kt)

where ``p_is`` / ``w_is`` are the quadrature nodes and area-scaled
weights of triangle ``i`` (the centroid rule has one node per triangle,
eq. (21)).  Assembling ``K`` densely is O(n²) memory — a hard wall for
fine meshes — but a Krylov/randomized eigensolver only ever needs
``K @ X`` for tall-skinny ``X``.  :class:`TiledKernelOperator` applies
exactly that product by *assembling tiles on the fly*: a block of rows
of the kernel Gram matrix is evaluated, multiplied into the (weighted)
operand, and discarded, so peak memory is one tile plus the operand
instead of the full n × n matrix.  The tiles come from
:func:`repro.core.kernels.gram_row_tiles`, the loop every Galerkin
assembly runs on.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.core.kernels import (
    DEFAULT_TILE_BYTES,
    KERNEL_EVAL_TEMP_DOUBLES,
    CovarianceKernel,
    gram_row_tiles,
    gram_tile_rows,
)
from repro.core.quadrature import CENTROID_RULE, TriangleRule, get_rule
from repro.mesh.mesh import TriangleMesh


class TiledKernelOperator:
    """Apply ``K`` by evaluating kernel-Gram tiles on the fly.

    One ``matmat`` pass evaluates every pairwise kernel value once, in
    row tiles of at most ``max_tile_bytes`` working set, against the
    quadrature nodes of ``rule`` — no n × n array ever exists.  With the
    centroid rule the node set is the triangle centroids and the weights
    are the areas, exactly the paper's eq. (21) quadrature.

    For a fixed ``max_tile_bytes`` the application is fully
    deterministic (what the solver's bitwise-reproducibility contract
    needs); different tile budgets agree to rounding, not bitwise, since
    BLAS picks its reduction blocking per matrix shape.
    """

    def __init__(
        self,
        kernel: CovarianceKernel,
        mesh: TriangleMesh,
        *,
        rule: Union[str, TriangleRule] = CENTROID_RULE,
        max_tile_bytes: int = DEFAULT_TILE_BYTES,
    ) -> None:
        if mesh.num_triangles == 0:
            raise ValueError("cannot build a kernel operator on an empty mesh")
        self.kernel = kernel
        self.mesh = mesh
        self.rule = get_rule(rule) if isinstance(rule, str) else rule
        self.max_tile_bytes = int(max_tile_bytes)
        self._points, self._weights = self.rule.points_on_mesh(mesh)
        #: Quadrature-node rows evaluated per tile under the byte budget.
        self.tile_rows = gram_tile_rows(len(self._points), self.max_tile_bytes)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n, n)`` with ``n`` the mesh triangle count."""
        n = self.mesh.num_triangles
        return (n, n)

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """Tiled ``K @ block``: one pass over the kernel Gram rows.

        ``block`` has shape ``(n, k)``; the result has the same shape.
        """
        arr = np.asarray(block, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self.shape[0]:
            raise ValueError(
                f"operand must have shape ({self.shape[0]}, k), got {arr.shape}"
            )
        q = self.rule.num_points
        n, k = arr.shape
        weights = self._weights
        operand = np.repeat(arr, q, axis=0)
        operand *= weights[:, None]
        accumulated = np.empty((len(weights), k), dtype=float)
        for start, stop, gram in gram_row_tiles(
            self.kernel, self._points, self.max_tile_bytes
        ):
            np.matmul(gram, operand, out=accumulated[start:stop])
        accumulated *= weights[:, None]
        if q == 1:
            return accumulated
        return accumulated.reshape(n, q, k).sum(axis=1)

    def peak_bytes(self, num_vectors: int) -> int:
        """Estimated peak working-set bytes of one ``matmat`` with
        ``num_vectors`` columns: tile temporaries, operand and result."""
        if num_vectors < 1:
            raise ValueError(f"num_vectors must be >= 1, got {num_vectors}")
        nodes = len(self._points)
        tile_bytes = 8 * self.tile_rows * nodes * KERNEL_EVAL_TEMP_DOUBLES
        vector_bytes = 8 * num_vectors * (2 * nodes + self.shape[0])
        return tile_bytes + vector_bytes + 8 * 2 * nodes


def dense_solve_bytes(num_triangles: int) -> int:
    """Bytes a dense assembly + LAPACK eigensolve needs at ``n`` triangles.

    Counts the assembled ``K``, the Φ-whitened copy the symmetric
    transform makes, and LAPACK's eigensolver workspace — three n × n
    doubles.  The number the memory-feasibility gates compare against.
    """
    if num_triangles < 1:
        raise ValueError(f"num_triangles must be >= 1, got {num_triangles}")
    n = int(num_triangles)
    return 3 * n * n * 8
