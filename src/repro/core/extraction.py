"""Kernel extraction from (simulated) silicon measurements.

The paper's flow starts from a valid covariance kernel "extracted from
process data (e.g., as per [1])" — Xiong et al.'s robust extraction.  This
module closes that loop for users who have measurements instead of a
kernel:

1. bin sample covariances of repeated die measurements by device
   separation distance (the empirical *correlogram*),
2. fit a chosen valid kernel family (Gaussian, exponential, Matérn eq. (6))
   to the binned profile by weighted least squares,
3. report goodness-of-fit and validity diagnostics.

The extracted kernel feeds straight into :func:`repro.core.solve_kle`.
Since real wafer data is unavailable here, tests and examples drive this
with synthetic measurements sampled from a known ground-truth kernel and
check that extraction recovers it (the standard self-consistency check of
the extraction literature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.optimize

from repro.core.kernel_fit import KernelFitResult, _fit_profile
from repro.core.kernels import (
    CovarianceKernel,
    ExponentialKernel,
    GaussianKernel,
    IsotropicKernel,
    MaternBesselKernel,
    SphericalKernel,
    pairwise_distances,
)


@dataclass(frozen=True)
class Correlogram:
    """Distance-binned empirical correlation of die measurements.

    Attributes
    ----------
    bin_centers:
        Separation distance at each bin centre.
    correlations:
        Mean sample correlation of device pairs in each bin (NaN for empty
        bins).
    pair_counts:
        Number of device pairs per bin — the natural fit weights.
    """

    bin_centers: np.ndarray
    correlations: np.ndarray
    pair_counts: np.ndarray

    def valid_mask(self) -> np.ndarray:
        """Boolean mask of bins that actually contain device pairs."""
        return self.pair_counts > 0


def empirical_correlogram(
    points: np.ndarray,
    samples: np.ndarray,
    *,
    num_bins: int = 25,
    max_distance: Optional[float] = None,
) -> Correlogram:
    """Compute the distance-binned correlation of measured outcomes.

    Parameters
    ----------
    points:
        ``(np, 2)`` device locations on the die.
    samples:
        ``(N, np)`` measured (normalized) parameter values — one row per
        die.  N of a few dozen dies already gives a usable correlogram.
    num_bins / max_distance:
        Binning of pair separations (default max: the die diameter seen in
        the data).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != len(points):
        raise ValueError(
            f"samples must be (N, {len(points)}), got {samples.shape}"
        )
    if samples.shape[0] < 3:
        raise ValueError("need at least 3 measured dies to correlate")

    centered = samples - samples.mean(axis=0, keepdims=True)
    stds = centered.std(axis=0)
    # Exact-zero guard on a computed std: a constant column yields a
    # bitwise 0.0 and must not be divided by.
    stds[stds == 0.0] = 1.0  # repro-lint: disable=REPRO-FLOAT001
    normalized = centered / stds
    corr = (normalized.T @ normalized) / samples.shape[0]

    iu = np.triu_indices(len(points), k=1)
    pair_dist = pairwise_distances(points, points)[iu]
    pair_corr = corr[iu]
    if max_distance is None:
        max_distance = float(pair_dist.max())
    edges = np.linspace(0.0, max_distance + 1e-12, num_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    correlations = np.full(num_bins, np.nan)
    counts = np.zeros(num_bins, dtype=np.int64)
    indices = np.clip(
        np.searchsorted(edges, pair_dist, side="right") - 1, 0, num_bins - 1
    )
    in_range = pair_dist <= max_distance
    for b in range(num_bins):
        mask = in_range & (indices == b)
        counts[b] = int(mask.sum())
        if counts[b]:
            correlations[b] = float(pair_corr[mask].mean())
    return Correlogram(
        bin_centers=centers, correlations=correlations, pair_counts=counts
    )


def _fit_matern_to_profile(
    distances: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray,
) -> KernelFitResult:
    """2-parameter weighted fit of the Matérn/Bessel family (eq. (6))."""
    sqrt_w = np.sqrt(weights)

    def residuals(params: np.ndarray) -> np.ndarray:
        b = float(np.exp(params[0]))
        s = 1.0 + float(np.exp(params[1]))
        kernel = MaternBesselKernel(b=b, s=s)
        return sqrt_w * (kernel.profile(distances) - target)

    solution = scipy.optimize.least_squares(
        residuals, x0=[0.0, 0.0], max_nfev=400
    )
    b = float(np.exp(solution.x[0]))
    s = 1.0 + float(np.exp(solution.x[1]))
    kernel = MaternBesselKernel(b=b, s=s)
    err = kernel.profile(distances) - target
    rmse = float(np.sqrt(np.sum(weights * err * err) / np.sum(weights)))
    return KernelFitResult(
        kernel=kernel,
        parameter=b,
        rmse=rmse,
        max_error=float(np.max(np.abs(err))),
    )


_ONE_PARAM_FAMILIES: Dict[str, Callable[[float], IsotropicKernel]] = {
    "gaussian": GaussianKernel,
    "exponential": ExponentialKernel,
    "spherical": SphericalKernel,
}


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of a kernel extraction.

    Attributes
    ----------
    kernel: the extracted (valid) kernel.
    family: family name chosen/fitted.
    fit: per-family fit diagnostics.
    correlogram: the empirical data the fit was made against.
    all_fits: fit results for every candidate family (model selection).
    """

    kernel: CovarianceKernel
    family: str
    fit: KernelFitResult
    correlogram: Correlogram
    all_fits: Dict[str, KernelFitResult]


def extract_kernel(
    points: np.ndarray,
    samples: np.ndarray,
    *,
    families: Sequence[str] = ("gaussian", "exponential", "matern"),
    num_bins: int = 25,
    max_distance: Optional[float] = None,
) -> ExtractionResult:
    """Extract a valid covariance kernel from die measurements.

    Fits every requested family to the empirical correlogram (weighted by
    pair counts) and returns the best by weighted RMSE — the practical
    equivalent of [1]'s robust extraction for this library.

    Families: ``"gaussian"``, ``"exponential"``, ``"spherical"``,
    ``"matern"`` (the 2-parameter eq. (6) family).
    """
    correlogram = empirical_correlogram(
        points, samples, num_bins=num_bins, max_distance=max_distance
    )
    mask = correlogram.valid_mask() & ~np.isnan(correlogram.correlations)
    if mask.sum() < 3:
        raise ValueError("too few populated correlogram bins to fit a kernel")
    distances = correlogram.bin_centers[mask]
    target = correlogram.correlations[mask]
    weights = correlogram.pair_counts[mask].astype(float)

    fits: Dict[str, KernelFitResult] = {}
    for family in families:
        if family in _ONE_PARAM_FAMILIES:
            initial = 1.0 / max(float(distances.mean()), 1e-6)
            fits[family] = _fit_profile(
                _ONE_PARAM_FAMILIES[family], distances, target, weights,
                initial,
            )
        elif family == "matern":
            fits[family] = _fit_matern_to_profile(distances, target, weights)
        else:
            raise ValueError(
                f"unknown kernel family {family!r}; choose from "
                f"{sorted(_ONE_PARAM_FAMILIES) + ['matern']}"
            )
    best_family = min(fits, key=lambda f: fits[f].rmse)
    return ExtractionResult(
        kernel=fits[best_family].kernel,
        family=best_family,
        fit=fits[best_family],
        correlogram=correlogram,
        all_fits=fits,
    )


@dataclass(frozen=True)
class AnisotropyReport:
    """Directional correlogram comparison.

    ``ratio`` is the fitted decay-rate ratio between the slowest- and
    fastest-decaying directions (1.0 = isotropic); ``angle`` the
    orientation (radians, in [0, π)) of the *slowest* decay — the major
    correlation axis.
    """

    ratio: float
    angle: float
    directional_c: Dict[float, float]

    @property
    def is_isotropic(self) -> bool:
        """Heuristic verdict: decay rates within 25 % across directions."""
        return self.ratio < 1.25


def detect_anisotropy(
    points: np.ndarray,
    samples: np.ndarray,
    *,
    num_sectors: int = 4,
    num_bins: int = 12,
) -> AnisotropyReport:
    """Check measured data for direction-dependent correlation decay.

    Bins device pairs by separation *direction* into ``num_sectors``
    half-plane sectors, fits a Gaussian decay rate per sector, and compares
    the extremes.  Isotropic data (all the paper's kernels) yields a ratio
    near 1; fields generated from :class:`~repro.core.kernels.
    AnisotropicGaussianKernel` are flagged with the correct major axis.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != len(points):
        raise ValueError(
            f"samples must be (N, {len(points)}), got {samples.shape}"
        )
    if num_sectors < 2:
        raise ValueError("need at least 2 direction sectors")

    centered = samples - samples.mean(axis=0, keepdims=True)
    stds = centered.std(axis=0)
    # Exact-zero guard on a computed std: a constant column yields a
    # bitwise 0.0 and must not be divided by.
    stds[stds == 0.0] = 1.0  # repro-lint: disable=REPRO-FLOAT001
    normalized = centered / stds
    corr = (normalized.T @ normalized) / samples.shape[0]

    diff = points[:, None, :] - points[None, :, :]
    iu = np.triu_indices(len(points), k=1)
    dx = diff[..., 0][iu]
    dy = diff[..., 1][iu]
    dist = np.hypot(dx, dy)
    pair_corr = corr[iu]
    # Directions folded into [0, π): correlation is symmetric under flip.
    theta = np.mod(np.arctan2(dy, dx), np.pi)
    sector = np.minimum(
        (theta / (np.pi / num_sectors)).astype(int), num_sectors - 1
    )

    directional_c: Dict[float, float] = {}
    for s in range(num_sectors):
        mask = sector == s
        if mask.sum() < 3 * num_bins:
            continue
        d = dist[mask]
        c_vals = pair_corr[mask]
        edges = np.linspace(0.0, float(d.max()) + 1e-12, num_bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        binned = np.full(num_bins, np.nan)
        weights = np.zeros(num_bins)
        indices = np.clip(
            np.searchsorted(edges, d, side="right") - 1, 0, num_bins - 1
        )
        for b in range(num_bins):
            in_bin = indices == b
            weights[b] = float(in_bin.sum())
            if weights[b]:
                binned[b] = float(c_vals[in_bin].mean())
        good = weights > 0
        if good.sum() < 3:
            continue
        fit = _fit_profile(
            GaussianKernel, centers[good], binned[good], weights[good],
            1.0 / max(float(d.mean()), 1e-6),
        )
        angle_center = (s + 0.5) * np.pi / num_sectors
        directional_c[float(angle_center)] = fit.parameter
    if len(directional_c) < 2:
        raise ValueError("too few populated direction sectors")
    slow_angle = min(directional_c, key=directional_c.get)  # smallest c
    fast_angle = max(directional_c, key=directional_c.get)
    ratio = directional_c[fast_angle] / directional_c[slow_angle]
    return AnisotropyReport(
        ratio=float(ratio), angle=float(slow_angle),
        directional_c=directional_c,
    )


def measurement_noise_floor(correlogram: Correlogram, num_dies: int) -> float:
    """Std of a binned correlation estimate from ``num_dies`` measurements.

    Sample correlations from N dies have std ≈ 1/sqrt(N) per pair; bin
    averaging over P pairs reduces it by at most sqrt(P) (pairs within a
    bin are themselves correlated, so this is a lower bound — useful to
    decide whether a fitted-vs-empirical residual is meaningful).
    """
    if num_dies < 2:
        raise ValueError("need at least 2 dies")
    mean_pairs = float(np.mean(correlogram.pair_counts[correlogram.valid_mask()]))
    return 1.0 / np.sqrt(num_dies) / np.sqrt(max(mean_pairs, 1.0))
