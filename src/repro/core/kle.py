"""Karhunen–Loève Expansion results: truncation, evaluation, reconstruction.

A solved KLE represents the random field as (paper eq. (3))

    p(x, θ) = Σ_j sqrt(λ_j) ξ_j(θ) f_j(x)

with uncorrelated unit-variance RVs ξ_j and L²-orthonormal eigenfunctions
f_j.  In the Galerkin discretization the eigenfunctions are piecewise
constant over the mesh: ``f_j(x) = d_ij`` for ``x ∈ Δ_i``.  This module
packages the eigenpairs together with everything the paper derives from
them:

- the truncation-order criterion of §5.2 (the "1 % rule" giving r = 25),
- the reconstruction matrix ``D_λ = D_r sqrt(Λ_r)`` of §4.3 (eq. 28),
- field-sample generation (the heart of Algorithm 2),
- rank-r kernel reconstruction ``K̂ = Σ λ_j f_j(x) f_j(y)`` (Fig. 3b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.kernels import CovarianceKernel
from repro.mesh.locate import TriangleLocator
from repro.mesh.mesh import TriangleMesh
from repro.utils.rng import SeedLike, as_generator


def select_truncation(
    eigenvalues: np.ndarray,
    total_dimension: int,
    *,
    fraction: float = 0.01,
) -> int:
    """The paper's truncation criterion (§5.2).

    Given the ``m`` computed leading eigenvalues (the paper computes
    m = 200) out of ``total_dimension = n`` total, choose the smallest ``r``
    such that

        λ_m (n - m) + Σ_{i=r+1}^{m} λ_i  ≤  fraction · Σ_{i=1}^{r} λ_i .

    The left side upper-bounds the total unused variance — every uncomputed
    eigenvalue is at most λ_m — so the criterion guarantees the discarded
    variance is below ``fraction`` (1 %) of the retained variance.

    Returns ``m`` itself when even keeping all computed pairs cannot satisfy
    the bound (the caller should compute more eigenpairs).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.ndim != 1 or eigenvalues.size == 0:
        raise ValueError("eigenvalues must be a non-empty 1-D array")
    if np.any(np.diff(eigenvalues) > 1e-12 * max(1.0, eigenvalues[0])):
        raise ValueError("eigenvalues must be sorted in descending order")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    m = eigenvalues.size
    if total_dimension < m:
        raise ValueError(
            f"total_dimension ({total_dimension}) smaller than the number of "
            f"computed eigenvalues ({m})"
        )
    clipped = np.clip(eigenvalues, 0.0, None)
    tail_bound_const = clipped[-1] * (total_dimension - m)
    cumulative = np.cumsum(clipped)
    total = cumulative[-1]
    for r in range(1, m + 1):
        retained = cumulative[r - 1]
        unused = tail_bound_const + (total - retained)
        if unused <= fraction * retained:
            return r
    return m


@dataclass(frozen=True)
class KLEResult:
    """Leading KLE eigenpairs of a kernel on a mesh.

    Attributes
    ----------
    eigenvalues:
        ``(m,)`` leading eigenvalues, descending.  Small negative values can
        appear from round-off; they are clipped to zero wherever a square
        root is taken.
    d_vectors:
        ``(nt, m)`` Galerkin coefficient vectors ``d`` (one column per
        eigenpair), Φ-normalized so each piecewise-constant eigenfunction
        has unit L²(D) norm.
    mesh:
        The triangulation the expansion lives on.
    kernel:
        The kernel that was expanded (kept for reconstruction/error checks).
    """

    eigenvalues: np.ndarray
    d_vectors: np.ndarray
    mesh: TriangleMesh
    kernel: Optional[CovarianceKernel] = None
    _locator_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        d_vectors = np.asarray(self.d_vectors, dtype=float)
        if eigenvalues.ndim != 1:
            raise ValueError("eigenvalues must be 1-D")
        if d_vectors.ndim != 2:
            raise ValueError("d_vectors must be 2-D (nt, m)")
        if d_vectors.shape[1] != eigenvalues.shape[0]:
            raise ValueError(
                f"d_vectors has {d_vectors.shape[1]} columns but there are "
                f"{eigenvalues.shape[0]} eigenvalues"
            )
        if d_vectors.shape[0] != self.mesh.num_triangles:
            raise ValueError(
                f"d_vectors has {d_vectors.shape[0]} rows but the mesh has "
                f"{self.mesh.num_triangles} triangles"
            )
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "d_vectors", d_vectors)

    # ------------------------------------------------------------------
    # Basic queries.
    # ------------------------------------------------------------------
    @property
    def num_eigenpairs(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def locator(self) -> TriangleLocator:
        """Lazily built point-location index (Algorithm 2, line 5)."""
        if not self._locator_cache:
            self._locator_cache.append(TriangleLocator(self.mesh))
        return self._locator_cache[0]

    def select_truncation(self, *, fraction: float = 0.01) -> int:
        """Apply the paper's 1 %-criterion using this result's eigenvalues.

        The bound treats all ``n - m`` uncomputed eigenvalues as equal to
        the smallest computed one, exactly as in §5.2.
        """
        return select_truncation(
            self.eigenvalues, self.mesh.num_triangles, fraction=fraction
        )

    def variance_captured(self, r: int) -> float:
        """Fraction of the total field variance carried by the first r pairs.

        The exact total variance of a normalized field is the domain area
        (``∫_D K(x,x) dx = |D|``, and Mercer gives ``Σ_j λ_j = |D|``).
        """
        self._check_r(r)
        clipped = np.clip(self.eigenvalues, 0.0, None)
        return float(np.sum(clipped[:r]) / self.mesh.total_area())

    def _check_r(self, r: int) -> None:
        if not 1 <= r <= self.num_eigenpairs:
            raise ValueError(
                f"r must be in [1, {self.num_eigenpairs}], got {r}"
            )

    # ------------------------------------------------------------------
    # Eigenfunction evaluation.
    # ------------------------------------------------------------------
    def eigenfunction_on_triangles(self, j: int) -> np.ndarray:
        """Values of eigenfunction ``f_j`` on each triangle (it is constant
        per triangle): the j-th column of ``D``."""
        if not 0 <= j < self.num_eigenpairs:
            raise ValueError(f"j must be in [0, {self.num_eigenpairs}), got {j}")
        return self.d_vectors[:, j]

    def eigenfunction_at(self, j: int, points: np.ndarray) -> np.ndarray:
        """Evaluate eigenfunction ``f_j`` at arbitrary die locations."""
        triangle_indices = self.locator.locate_many(np.asarray(points, float))
        return self.d_vectors[triangle_indices, j]

    # ------------------------------------------------------------------
    # Reconstruction (paper §4.3).
    # ------------------------------------------------------------------
    def reconstruction_matrix(self, r: int) -> np.ndarray:
        """``D_λ = D_r sqrt(Λ_r)`` — (nt, r), the linear map of eq. (28).

        A sample ``ξ`` of r iid standard normals maps to per-triangle field
        values ``p_Δ = D_λ ξ``.
        """
        self._check_r(r)
        sqrt_lambda = np.sqrt(np.clip(self.eigenvalues[:r], 0.0, None))
        return self.d_vectors[:, :r] * sqrt_lambda[None, :]

    def sample_triangle_values(
        self,
        num_samples: int,
        *,
        r: Optional[int] = None,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Draw field outcomes as per-triangle values: ``(num_samples, nt)``.

        This is lines 2–3 of Algorithm 2: ``Ξ ← RandNormal(N, r)`` followed
        by ``P_Δ ← D_λ Ξ``.
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if r is None:
            r = self.num_eigenpairs
        self._check_r(r)
        rng = as_generator(seed)
        xi = rng.standard_normal((num_samples, r))
        return xi @ self.reconstruction_matrix(r).T

    def sample_at_points(
        self,
        points: np.ndarray,
        num_samples: int,
        *,
        r: Optional[int] = None,
        seed: SeedLike = None,
        triangle_indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw field outcomes at given die locations: ``(num_samples, np)``.

        Full Algorithm 2: sample per-triangle values, then gather each
        point's containing-triangle row.  ``triangle_indices`` can be
        precomputed once (per placement) with ``locator.locate_many`` and
        reused across parameters/samples.
        """
        points = np.asarray(points, dtype=float)
        if triangle_indices is None:
            triangle_indices = self.locator.locate_many(points)
        samples = self.sample_triangle_values(num_samples, r=r, seed=seed)
        return np.take(samples, triangle_indices, axis=1)

    def reconstruct_kernel(
        self,
        x_points: np.ndarray,
        y_points: np.ndarray,
        *,
        r: Optional[int] = None,
    ) -> np.ndarray:
        """Rank-r Mercer reconstruction ``K̂(x, y) = Σ_j λ_j f_j(x) f_j(y)``.

        Used for Fig. 3(b): comparing ``K̂`` against the true kernel
        measures how much correlation structure the truncation preserves.
        Returns shape ``(len(x_points), len(y_points))``.
        """
        if r is None:
            r = self.num_eigenpairs
        self._check_r(r)
        x_points = np.asarray(x_points, dtype=float).reshape(-1, 2)
        y_points = np.asarray(y_points, dtype=float).reshape(-1, 2)
        x_tri = self.locator.locate_many(x_points)
        y_tri = self.locator.locate_many(y_points)
        lam = np.clip(self.eigenvalues[:r], 0.0, None)
        fx = self.d_vectors[x_tri, :r]
        fy = self.d_vectors[y_tri, :r]
        return (fx * lam[None, :]) @ fy.T

    def covariance_on_triangles(self, *, r: Optional[int] = None) -> np.ndarray:
        """Rank-r covariance among the per-triangle values: ``D_λ D_λᵀ``."""
        d_lambda = self.reconstruction_matrix(
            self.num_eigenpairs if r is None else r
        )
        return d_lambda @ d_lambda.T

    def truncate(self, r: int) -> "KLEResult":
        """A new result keeping only the first ``r`` eigenpairs."""
        self._check_r(r)
        return KLEResult(
            eigenvalues=self.eigenvalues[:r].copy(),
            d_vectors=self.d_vectors[:, :r].copy(),
            mesh=self.mesh,
            kernel=self.kernel,
        )
