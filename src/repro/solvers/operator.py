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

For meshes small enough that dense assembly is cheaper than repeated
kernel evaluation, :class:`DenseKernelOperator` wraps the assembled
matrix behind the same interface; :func:`make_kernel_operator` picks
between the two by triangle count.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.galerkin import assemble_galerkin_matrix
from repro.core.kernels import (
    DEFAULT_TILE_BYTES,
    KERNEL_EVAL_TEMP_DOUBLES,
    CovarianceKernel,
    gram_row_tiles,
    gram_tile_rows,
)
from repro.core.quadrature import CENTROID_RULE, TriangleRule, get_rule
from repro.mesh.mesh import TriangleMesh

#: Triangle count at or below which :func:`make_kernel_operator` prefers
#: the dense operator (one assembly beats ~5 tiled passes there, and the
#: n² footprint is still tiny).
DENSE_OPERATOR_THRESHOLD = 2048


class KernelOperator(abc.ABC):
    """Protocol for applying the Galerkin matrix ``K`` without owning it.

    Implementations are symmetric linear operators on per-triangle
    vectors: ``matmat(X)[i] = Σ_k K_ik X[k]`` with ``K`` the (possibly
    never materialized) Galerkin matrix.  ``peak_bytes`` exposes the
    implementation's working-set estimate so solvers and benches can
    reason about memory feasibility before running.
    """

    #: Implementation tag ("tiled" or "dense") for reports/cache keys.
    kind: str = "abstract"

    @property
    @abc.abstractmethod
    def shape(self) -> Tuple[int, int]:
        """``(n, n)`` with ``n`` the mesh triangle count."""

    @abc.abstractmethod
    def matmat(self, block: np.ndarray) -> np.ndarray:
        """Apply the operator to a block of column vectors: ``K @ block``.

        ``block`` has shape ``(n, k)``; the result has the same shape.
        """

    @abc.abstractmethod
    def peak_bytes(self, num_vectors: int) -> int:
        """Estimated peak working-set bytes of one ``matmat`` with
        ``num_vectors`` columns (operand, temporaries and result)."""

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """Apply the operator to a single vector: ``K @ vector``."""
        arr = np.asarray(vector, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"matvec expects a 1-D vector, got shape {arr.shape}")
        return self.matmat(arr[:, None])[:, 0]

    def _check_block(self, block: np.ndarray) -> np.ndarray:
        """Validate and convert a matmat operand."""
        arr = np.asarray(block, dtype=float)
        n = self.shape[0]
        if arr.ndim != 2 or arr.shape[0] != n:
            raise ValueError(
                f"operand must have shape ({n}, k), got {arr.shape}"
            )
        return arr


class TiledKernelOperator(KernelOperator):
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

    kind = "tiled"

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
        """Tiled ``K @ block``: one pass over the kernel Gram rows."""
        arr = self._check_block(block)
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
        """Working set of one pass: tile temporaries + operand + result."""
        if num_vectors < 1:
            raise ValueError(f"num_vectors must be >= 1, got {num_vectors}")
        nodes = len(self._points)
        tile_bytes = 8 * self.tile_rows * nodes * KERNEL_EVAL_TEMP_DOUBLES
        vector_bytes = 8 * num_vectors * (2 * nodes + self.shape[0])
        return tile_bytes + vector_bytes + 8 * 2 * nodes


class DenseKernelOperator(KernelOperator):
    """Dense fallback: assemble ``K`` once, then apply it with BLAS.

    The right choice for small meshes, where an eigensolver's several
    passes would re-evaluate the kernel Gram matrix each time while the
    assembled matrix fits comfortably in memory.  Assembly is deferred
    to the first application.
    """

    kind = "dense"

    def __init__(
        self,
        kernel: CovarianceKernel,
        mesh: TriangleMesh,
        *,
        rule: Union[str, TriangleRule] = CENTROID_RULE,
    ) -> None:
        if mesh.num_triangles == 0:
            raise ValueError("cannot build a kernel operator on an empty mesh")
        self.kernel = kernel
        self.mesh = mesh
        self.rule = get_rule(rule) if isinstance(rule, str) else rule
        self._matrix: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n, n)`` with ``n`` the mesh triangle count."""
        n = self.mesh.num_triangles
        return (n, n)

    @property
    def matrix(self) -> np.ndarray:
        """The assembled Galerkin matrix (built on first access)."""
        if self._matrix is None:
            self._matrix = assemble_galerkin_matrix(
                self.kernel, self.mesh, rule=self.rule
            )
        return self._matrix

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """``K @ block`` through the assembled matrix."""
        return self.matrix @ self._check_block(block)

    def peak_bytes(self, num_vectors: int) -> int:
        """Assembled matrix plus operand and result blocks."""
        if num_vectors < 1:
            raise ValueError(f"num_vectors must be >= 1, got {num_vectors}")
        n = self.shape[0]
        return 8 * (n * n + 2 * n * num_vectors)


def make_kernel_operator(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    rule: Union[str, TriangleRule] = CENTROID_RULE,
) -> KernelOperator:
    """Pick the right operator implementation for a mesh size.

    At or below :data:`DENSE_OPERATOR_THRESHOLD` triangles the dense
    operator wins (one assembly, BLAS-speed applications); above it the
    tiled matrix-free operator keeps peak memory bounded by one Gram tile
    of :data:`~repro.core.kernels.DEFAULT_TILE_BYTES` regardless of ``n``.
    """
    if mesh.num_triangles <= DENSE_OPERATOR_THRESHOLD:
        return DenseKernelOperator(kernel, mesh, rule=rule)
    return TiledKernelOperator(kernel, mesh, rule=rule)


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
