"""The grid-based spatial-correlation model + PCA (paper §2.1 baseline).

This is the Chang–Sapatnekar [5] style model the paper argues against: the
die is divided into ``N_G`` rectangular grid cells, each cell gets one RV
per parameter, and an ``N_G × N_G`` correlation matrix couples the cells.
PCA (the discrete form of KLE) extracts uncorrelated components.

We implement it faithfully — including its failure modes — so the
KLE-vs-PCA ablation bench can compare both reductions at equal RV budget,
and so tests can demonstrate the validity problems (ad-hoc correlation
matrices that are not PSD) that motivate the kernel-based model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.kernels import CovarianceKernel, pairwise_distances
from repro.utils.linalg import is_positive_semidefinite, nearest_psd
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class GridModel:
    """A regular grid over the die with a cell-to-cell correlation matrix.

    Attributes
    ----------
    bounds: die rectangle ``(xmin, ymin, xmax, ymax)``.
    cells_x, cells_y: grid resolution (``N_G = cells_x * cells_y``).
    correlation: ``(N_G, N_G)`` cell correlation matrix.
    """

    bounds: Tuple[float, float, float, float]
    cells_x: int
    cells_y: int
    correlation: np.ndarray

    def __post_init__(self) -> None:
        xmin, ymin, xmax, ymax = self.bounds
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("bounds must describe a positive-area rectangle")
        if self.cells_x < 1 or self.cells_y < 1:
            raise ValueError("grid must have at least one cell per axis")
        corr = np.asarray(self.correlation, dtype=float)
        n = self.num_cells
        if corr.shape != (n, n):
            raise ValueError(
                f"correlation must be ({n}, {n}), got {corr.shape}"
            )
        object.__setattr__(self, "correlation", corr)

    @property
    def num_cells(self) -> int:
        return self.cells_x * self.cells_y

    def cell_centers(self) -> np.ndarray:
        """``(N_G, 2)`` centres of the grid cells (row-major, x fastest)."""
        xmin, ymin, xmax, ymax = self.bounds
        dx = (xmax - xmin) / self.cells_x
        dy = (ymax - ymin) / self.cells_y
        xs = xmin + dx * (np.arange(self.cells_x) + 0.5)
        ys = ymin + dy * (np.arange(self.cells_y) + 0.5)
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="xy")
        return np.column_stack([grid_x.ravel(), grid_y.ravel()])

    def cell_of_points(self, points: np.ndarray) -> np.ndarray:
        """Grid-cell index of each point (row-major, x fastest)."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        xmin, ymin, xmax, ymax = self.bounds
        fx = (points[:, 0] - xmin) / (xmax - xmin)
        fy = (points[:, 1] - ymin) / (ymax - ymin)
        if np.any((fx < 0) | (fx > 1) | (fy < 0) | (fy > 1)):
            raise ValueError("some points fall outside the grid bounds")
        ix = np.minimum((fx * self.cells_x).astype(int), self.cells_x - 1)
        iy = np.minimum((fy * self.cells_y).astype(int), self.cells_y - 1)
        return iy * self.cells_x + ix

    def is_valid(self, *, tol: float = 1e-8) -> bool:
        """PSD check — the validity question grid models cannot guarantee."""
        return is_positive_semidefinite(self.correlation, tol=tol)

    def repaired(self) -> "GridModel":
        """Nearest-PSD repair of an invalid correlation matrix.

        Clips negative eigenvalues and re-normalizes the diagonal to 1,
        the usual ad-hoc fix (with the usual distortion of off-diagonals).
        """
        fixed = nearest_psd(self.correlation)
        d = np.sqrt(np.clip(np.diag(fixed), 1e-300, None))
        fixed = fixed / np.outer(d, d)
        return GridModel(self.bounds, self.cells_x, self.cells_y, fixed)


def grid_model_from_kernel(
    kernel: CovarianceKernel,
    bounds: Tuple[float, float, float, float],
    cells_x: int,
    cells_y: int,
) -> GridModel:
    """Build a grid model by sampling a kernel at the cell centres.

    This is the principled way to populate a grid model (and inherits the
    kernel's validity); the distance-taper constructor below shows the
    ad-hoc alternative that can go wrong.
    """
    centers_model = GridModel(
        bounds, cells_x, cells_y, np.eye(cells_x * cells_y)
    )
    centers = centers_model.cell_centers()
    return GridModel(bounds, cells_x, cells_y, kernel.matrix(centers))


def adhoc_taper_grid_model(
    bounds: Tuple[float, float, float, float],
    cells_x: int,
    cells_y: int,
    correlation_distance: float,
) -> GridModel:
    """An *ad-hoc* grid model with linearly tapering cell correlations.

    Assigns ``max(0, 1 - d/correlation_distance)`` between cell centres —
    the intuitive engineering choice, which in 2-D is **not** guaranteed
    PSD (this is the grid-model pitfall the paper and [1] describe; tests
    exercise it as a negative example).
    """
    model = GridModel(bounds, cells_x, cells_y, np.eye(cells_x * cells_y))
    centers = model.cell_centers()
    dist = pairwise_distances(centers, centers)
    corr = np.clip(1.0 - dist / correlation_distance, 0.0, None)
    return GridModel(bounds, cells_x, cells_y, corr)


class GridPCA:
    """PCA reduction of a grid model (paper eq. (1)) — the KLE baseline.

    Decomposes the cell correlation matrix ``K = V Λ Vᵀ`` and keeps the
    ``r`` leading components: cell values are reconstructed as
    ``p = Σ_j sqrt(λ_j) v_j p'_j`` from uncorrelated ``p'_j``.
    """

    def __init__(self, model: GridModel):
        self.model = model
        corr = 0.5 * (model.correlation + model.correlation.T)
        eigvals, eigvecs = np.linalg.eigh(corr)
        order = np.argsort(eigvals)[::-1]
        self.eigenvalues = eigvals[order]
        self.eigenvectors = eigvecs[:, order]

    def variance_captured(self, r: int) -> float:
        """Fraction of total grid-RV variance in the first r components."""
        self._check_r(r)
        clipped = np.clip(self.eigenvalues, 0.0, None)
        total = float(clipped.sum())
        # Clipped eigenvalue sum is bitwise 0.0 only for the degenerate
        # all-zero spectrum; exact comparison intended.
        if total == 0.0:  # repro-lint: disable=REPRO-FLOAT001
            return 0.0
        return float(clipped[:r].sum() / total)

    def components_needed(self, fraction: float) -> int:
        """Smallest r capturing at least ``fraction`` of the variance."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        clipped = np.clip(self.eigenvalues, 0.0, None)
        cum = np.cumsum(clipped) / clipped.sum()
        return int(np.searchsorted(cum, fraction) + 1)

    def _check_r(self, r: int) -> None:
        if not 1 <= r <= len(self.eigenvalues):
            raise ValueError(f"r must be in [1, {len(self.eigenvalues)}], got {r}")

    def reconstruction_matrix(self, r: int) -> np.ndarray:
        """``(N_G, r)`` map from r uncorrelated RVs to cell values."""
        self._check_r(r)
        sqrt_lambda = np.sqrt(np.clip(self.eigenvalues[:r], 0.0, None))
        return self.eigenvectors[:, :r] * sqrt_lambda[None, :]

    def sample_cell_values(
        self,
        num_samples: int,
        r: int,
        *,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Sample per-cell parameter values: ``(num_samples, N_G)``."""
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        rng = as_generator(seed)
        basis = self.reconstruction_matrix(r)
        xi = rng.standard_normal((num_samples, r))
        return xi @ basis.T

    def sample_at_points(
        self,
        points: np.ndarray,
        num_samples: int,
        r: int,
        *,
        seed: SeedLike = None,
        cell_indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sample parameter values at die locations via their grid cell."""
        if cell_indices is None:
            cell_indices = self.model.cell_of_points(points)
        cells = self.sample_cell_values(num_samples, r, seed=seed)
        return cells[:, cell_indices]
