"""The grid-less random-field model of intra-die variation (paper §2.2).

A statistical parameter ``p`` (normalized L, W, Vt or tox) is modeled as a
Gaussian random field ``p(x, θ)`` over the die with zero mean, unit variance
and covariance kernel ``K``.  :class:`RandomField` provides *exact*
sampling at arbitrary finite point sets via Cholesky factorization of the
point-set covariance matrix — the reference generator of the paper's
Algorithm 1 — plus conditional simulation and variogram estimation for
model-checking.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.kernels import CovarianceKernel, pairwise_distances
from repro.utils.linalg import cholesky_with_jitter
from repro.utils.rng import SeedLike, as_generator


class RandomField:
    """A zero-mean, unit-variance Gaussian random field with kernel ``K``.

    Parameters
    ----------
    kernel:
        A valid covariance kernel (see :mod:`repro.core.kernels`).
    mean, std:
        Optional affine de-normalization: physical samples are
        ``mean + std * normalized``.  Defaults give the normalized field
        the paper works with.
    """

    def __init__(
        self,
        kernel: CovarianceKernel,
        *,
        mean: float = 0.0,
        std: float = 1.0,
    ):
        if std <= 0.0:
            raise ValueError(f"std must be positive, got {std}")
        self.kernel = kernel
        self.mean = float(mean)
        self.std = float(std)

    # ------------------------------------------------------------------
    # Exact sampling (Algorithm 1's generator).
    # ------------------------------------------------------------------
    def cholesky_factor(self, points: np.ndarray) -> np.ndarray:
        """Upper Cholesky factor ``U`` of the covariance at ``points``.

        ``U.T @ U = K(points, points)``; the paper's Algorithm 1 line 3.
        A tiny diagonal jitter is added automatically when round-off makes
        the matrix numerically indefinite.
        """
        return cholesky_with_jitter(self.kernel.matrix(points))

    def sample(
        self,
        points: np.ndarray,
        num_samples: int,
        *,
        seed: SeedLike = None,
        cholesky_upper: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw exact field outcomes at ``points``: ``(num_samples, np)``.

        Algorithm 1 lines 3–4: ``P ← RandNormal(N, Np) · U``.  Pass a
        precomputed ``cholesky_upper`` to amortize the factorization across
        parameters sharing a kernel.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if cholesky_upper is None:
            cholesky_upper = self.cholesky_factor(points)
        elif cholesky_upper.shape != (len(points), len(points)):
            raise ValueError(
                f"cholesky_upper shape {cholesky_upper.shape} does not match "
                f"{len(points)} points"
            )
        rng = as_generator(seed)
        normals = rng.standard_normal((num_samples, len(points)))
        return self.mean + self.std * (normals @ cholesky_upper)

    def sample_on_grid(
        self,
        bounds: Tuple[float, float, float, float],
        resolution: int,
        num_samples: int,
        *,
        seed: SeedLike = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample full-chip outcome maps (the paper's Fig. 1(b) pictures).

        Returns ``(points, samples)`` where ``points`` is the
        ``(resolution², 2)`` grid and ``samples`` is
        ``(num_samples, resolution²)``; reshape a row to
        ``(resolution, resolution)`` to get one outcome image.
        """
        xmin, ymin, xmax, ymax = bounds
        xs = np.linspace(xmin, xmax, resolution)
        ys = np.linspace(ymin, ymax, resolution)
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="xy")
        points = np.column_stack([grid_x.ravel(), grid_y.ravel()])
        return points, self.sample(points, num_samples, seed=seed)

    # ------------------------------------------------------------------
    # Conditional simulation (measurement-conditioned outcomes).
    # ------------------------------------------------------------------
    def conditional_sample(
        self,
        observed_points: np.ndarray,
        observed_values: np.ndarray,
        query_points: np.ndarray,
        num_samples: int,
        *,
        seed: SeedLike = None,
        noise_variance: float = 0.0,
    ) -> np.ndarray:
        """Sample the field at ``query_points`` given exact/noisy observations.

        Standard Gaussian conditioning (kriging): with observations ``y`` at
        ``X_o``, the conditional field at ``X_q`` is Gaussian with mean
        ``K_qo (K_oo + σ²I)⁻¹ y`` and covariance
        ``K_qq - K_qo (K_oo + σ²I)⁻¹ K_oq``.  Supports what-if analyses such
        as conditioning a timing run on wafer-probe measurements.
        """
        observed_points = np.asarray(observed_points, float).reshape(-1, 2)
        observed_values = np.asarray(observed_values, float).reshape(-1)
        query_points = np.asarray(query_points, float).reshape(-1, 2)
        if len(observed_points) != len(observed_values):
            raise ValueError("observed points/values length mismatch")
        if noise_variance < 0.0:
            raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
        normalized = (observed_values - self.mean) / self.std
        k_oo = self.kernel.matrix(observed_points)
        k_oo[np.diag_indices_from(k_oo)] += noise_variance + 1e-12
        k_qo = self.kernel.matrix(query_points, observed_points)
        k_qq = self.kernel.matrix(query_points)
        solve = np.linalg.solve
        alpha = solve(k_oo, normalized)
        cond_mean = k_qo @ alpha
        cond_cov = k_qq - k_qo @ solve(k_oo, k_qo.T)
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
        upper = cholesky_with_jitter(cond_cov)
        rng = as_generator(seed)
        normals = rng.standard_normal((num_samples, len(query_points)))
        samples = cond_mean[None, :] + normals @ upper
        return self.mean + self.std * samples

    # ------------------------------------------------------------------
    # Model checking.
    # ------------------------------------------------------------------
    def empirical_correlation(
        self,
        samples: np.ndarray,
        points: np.ndarray,
        num_bins: int = 20,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distance-binned empirical correlation of field samples.

        Returns ``(bin_centers, empirical, theoretical)`` where
        ``theoretical`` is the kernel's prediction at the bin centres (only
        meaningful for isotropic kernels).  This is how one checks sampled
        outcomes against the model — and, with silicon data instead of
        samples, how kernels like eq. (6) are extracted in the first place.
        """
        samples = np.asarray(samples, dtype=float)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if samples.ndim != 2 or samples.shape[1] != len(points):
            raise ValueError(
                f"samples must be (N, {len(points)}), got {samples.shape}"
            )
        centered = samples - samples.mean(axis=0, keepdims=True)
        stds = centered.std(axis=0)
        # Exact-zero guard on a computed std: a constant column yields
        # a bitwise 0.0 and must not be divided by.
        stds[stds == 0.0] = 1.0  # repro-lint: disable=REPRO-FLOAT001
        centered = centered / stds
        corr = (centered.T @ centered) / len(samples)
        iu = np.triu_indices(len(points), k=1)
        dist_flat = pairwise_distances(points, points)[iu]
        corr_flat = corr[iu]
        edges = np.linspace(0.0, float(dist_flat.max()) + 1e-12, num_bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        empirical = np.full(num_bins, np.nan)
        for b in range(num_bins):
            mask = (dist_flat >= edges[b]) & (dist_flat < edges[b + 1])
            if np.any(mask):
                empirical[b] = float(corr_flat[mask].mean())
        pairs = np.column_stack([centers, np.zeros(num_bins)])
        origin = np.zeros((num_bins, 2))
        theoretical = self.kernel(pairs, origin)
        return centers, empirical, theoretical

    def __repr__(self) -> str:
        return (
            f"RandomField(kernel={self.kernel!r}, mean={self.mean:g}, "
            f"std={self.std:g})"
        )
