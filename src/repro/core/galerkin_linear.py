"""Higher-order Galerkin: piecewise-*linear* basis functions.

The paper (§4.2) notes that "higher order piecewise polynomials can also be
used as the basis set, along with high order numerical integration … there
are no restrictions on their use".  This module implements the first step
of that ladder: continuous piecewise-linear ("hat") basis functions on the
mesh vertices.

Differences from the piecewise-constant flow of :mod:`repro.core.galerkin`:

- one basis function per *vertex* (not per triangle),
- the Gram matrix ``Φ`` (eq. 12) is the classical FEM mass matrix — sparse
  and non-diagonal, so eq. (13) stays a genuine generalized eigenproblem,
- eigenfunctions are continuous and evaluated by barycentric interpolation,
  so the reconstructed field is continuous across triangle edges.

The payoff (asserted in ``tests/test_reproduction.py``) is
a higher convergence order in the mesh size ``h`` than the linear rate the
paper proves for the constant basis (Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.linalg

from repro.core.kernels import CovarianceKernel, gram_row_tiles
from repro.core.kle import select_truncation
from repro.core.quadrature import THREE_POINT_RULE, TriangleRule, get_rule
from repro.mesh.locate import TriangleLocator
from repro.mesh.mesh import TriangleMesh
from repro.utils.rng import SeedLike, as_generator


def linear_mass_matrix(mesh: TriangleMesh) -> np.ndarray:
    """The FEM mass matrix ``Φ_ik = ∫ φ_i φ_k`` for hat functions.

    Per-triangle contribution is the classical ``(a_t / 12) [[2,1,1],
    [1,2,1],[1,1,2]]``.  Returned dense (meshes here are small); it is
    symmetric positive definite.
    """
    nv = mesh.num_vertices
    mass = np.zeros((nv, nv))
    for t in range(mesh.num_triangles):
        i, j, k = (int(v) for v in mesh.triangles[t])
        a = mesh.areas[t] / 12.0
        for u in (i, j, k):
            mass[u, u] += 2.0 * a
        mass[i, j] += a
        mass[j, i] += a
        mass[j, k] += a
        mass[k, j] += a
        mass[i, k] += a
        mass[k, i] += a
    return mass


def _vertex_quadrature_operator(
    mesh: TriangleMesh, rule: TriangleRule
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Quadrature nodes plus the (nq, nv) interpolation operator ``A``.

    ``A[q, v]`` is the hat function of vertex ``v`` evaluated at quadrature
    node ``q`` (its barycentric coordinate), and ``w`` the area-scaled
    weights, so ``∫ f φ_v ≈ Σ_q w_q f(x_q) A[q, v]``.
    """
    points, weights = rule.points_on_mesh(mesh)
    nq = len(points)
    operator = np.zeros((nq, mesh.num_vertices))
    q = rule.num_points
    for t in range(mesh.num_triangles):
        verts = mesh.triangles[t]
        for s in range(q):
            row = t * q + s
            for corner in range(3):
                operator[row, int(verts[corner])] += rule.barycentric[s, corner]
    return points, weights, operator


def assemble_linear_galerkin_matrix(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    rule: Union[str, TriangleRule] = THREE_POINT_RULE,
) -> np.ndarray:
    """``K_ik = ∬ K(x, y) φ_i(y) φ_k(x) dx dy`` for the hat basis.

    Computed as ``(WA)ᵀ K(x_q, x_q') (WA)``, accumulated over the
    :func:`~repro.core.kernels.gram_row_tiles` of the quadrature nodes so
    peak memory is one tile.  Each tile is multiplied into ``WA`` first,
    so the GEMM cost (``nq²·nv + nq·nv²``) does not grow with the tile
    count; the products sum across tiles, so the tile count (set by the
    default budget and the node count) decides the last bits.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)
    if rule.degree < 2:
        raise ValueError(
            "piecewise-linear basis needs a rule of degree >= 2 "
            "(products of two linear hats are quadratic); use three_point "
            "or seven_point"
        )
    points, weights, operator = _vertex_quadrature_operator(mesh, rule)
    weighted = operator * weights[:, None]  # (nq, nv)
    nv = mesh.num_vertices
    result = np.zeros((nv, nv))
    for start, stop, tile in gram_row_tiles(kernel, points):
        result += weighted[start:stop].T @ (tile @ weighted)
    return 0.5 * (result + result.T)


@dataclass(frozen=True)
class LinearKLEResult:
    """KLE eigenpairs in the continuous piecewise-linear basis.

    ``d_vectors[v, j]`` is eigenfunction j's value at mesh vertex ``v``;
    evaluation anywhere on the die is barycentric interpolation within the
    containing triangle.
    """

    eigenvalues: np.ndarray
    d_vectors: np.ndarray  # (nv, m), mass-matrix orthonormal
    mesh: TriangleMesh
    kernel: Optional[CovarianceKernel] = None
    _locator_cache: list = field(default_factory=list, repr=False, compare=False)

    @property
    def num_eigenpairs(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def locator(self) -> TriangleLocator:
        if not self._locator_cache:
            self._locator_cache.append(TriangleLocator(self.mesh))
        return self._locator_cache[0]

    def select_truncation(self, *, fraction: float = 0.01) -> int:
        """The paper's 1 % criterion over the vertex-basis spectrum."""
        return select_truncation(
            self.eigenvalues, self.mesh.num_vertices, fraction=fraction
        )

    def _barycentric_operator(self, points: np.ndarray) -> np.ndarray:
        """(np, nv) interpolation matrix for arbitrary die points."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        triangles = self.locator.locate_many(points)
        operator = np.zeros((len(points), self.mesh.num_vertices))
        verts = self.mesh.vertices
        for row, (point, t) in enumerate(zip(points, triangles)):
            i, j, k = (int(v) for v in self.mesh.triangles[t])
            a, b, c = verts[i], verts[j], verts[k]
            det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            l2 = (
                (point[0] - a[0]) * (c[1] - a[1])
                - (point[1] - a[1]) * (c[0] - a[0])
            ) / det
            l3 = (
                (b[0] - a[0]) * (point[1] - a[1])
                - (b[1] - a[1]) * (point[0] - a[0])
            ) / det
            operator[row, i] = 1.0 - l2 - l3
            operator[row, j] = l2
            operator[row, k] = l3
        return operator

    def eigenfunction_at(self, j: int, points: np.ndarray) -> np.ndarray:
        """Continuous evaluation of eigenfunction ``j`` at die locations."""
        if not 0 <= j < self.num_eigenpairs:
            raise ValueError(f"j must be in [0, {self.num_eigenpairs}), got {j}")
        return self._barycentric_operator(points) @ self.d_vectors[:, j]

    def reconstruct_kernel(
        self,
        x_points: np.ndarray,
        y_points: np.ndarray,
        *,
        r: Optional[int] = None,
    ) -> np.ndarray:
        """Rank-r Mercer reconstruction with continuous eigenfunctions."""
        if r is None:
            r = self.num_eigenpairs
        if not 1 <= r <= self.num_eigenpairs:
            raise ValueError(f"r must be in [1, {self.num_eigenpairs}], got {r}")
        fx = self._barycentric_operator(
            np.asarray(x_points, float).reshape(-1, 2)
        ) @ self.d_vectors[:, :r]
        fy = self._barycentric_operator(
            np.asarray(y_points, float).reshape(-1, 2)
        ) @ self.d_vectors[:, :r]
        lam = np.clip(self.eigenvalues[:r], 0.0, None)
        return (fx * lam[None, :]) @ fy.T

    def sample_at_points(
        self,
        points: np.ndarray,
        num_samples: int,
        *,
        r: Optional[int] = None,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Field samples at arbitrary points: *continuous* across the die
        (no per-triangle plateaus, unlike the constant basis)."""
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if r is None:
            r = self.num_eigenpairs
        if not 1 <= r <= self.num_eigenpairs:
            raise ValueError(f"r must be in [1, {self.num_eigenpairs}], got {r}")
        basis = self._barycentric_operator(
            np.asarray(points, float).reshape(-1, 2)
        ) @ (
            self.d_vectors[:, :r]
            * np.sqrt(np.clip(self.eigenvalues[:r], 0.0, None))[None, :]
        )  # (np, r)
        rng = as_generator(seed)
        xi = rng.standard_normal((num_samples, r))
        return xi @ basis.T


def solve_kle_linear(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    num_eigenpairs: Optional[int] = None,
    rule: Union[str, TriangleRule] = THREE_POINT_RULE,
) -> LinearKLEResult:
    """Solve the KLE with the piecewise-linear basis (full GEP).

    Mirrors :func:`repro.core.galerkin.solve_kle`; the Gram matrix is the
    (non-diagonal) mass matrix, so this calls the dense generalized
    symmetric eigensolver.
    """
    k_matrix = assemble_linear_galerkin_matrix(kernel, mesh, rule=rule)
    mass = linear_mass_matrix(mesh)
    eigvals, eigvecs = scipy.linalg.eigh(k_matrix, mass)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if num_eigenpairs is not None:
        if num_eigenpairs < 1:
            raise ValueError(f"num_eigenpairs must be >= 1, got {num_eigenpairs}")
        num_eigenpairs = min(num_eigenpairs, eigvals.shape[0])
        eigvals = eigvals[:num_eigenpairs]
        eigvecs = eigvecs[:, :num_eigenpairs]
    return LinearKLEResult(
        eigenvalues=eigvals, d_vectors=eigvecs, mesh=mesh, kernel=kernel
    )
