"""Spatial correlation (covariance) kernels for intra-die random fields.

A *covariance kernel* ``K(x, y)`` returns the covariance of a normalized
statistical device parameter (L, W, Vt, tox) between any two die locations
``x`` and ``y`` (paper §2.2).  A physically valid kernel must be symmetric and
non-negative definite (paper eq. (2)); with normalized parameters it must
also satisfy ``K(x, x) = 1``.

This module provides every kernel family the paper discusses:

- :class:`GaussianKernel` — ``exp(-c ||x-y||²)``, the kernel used for all of
  the paper's experiments (Fig. 1a).
- :class:`ExponentialKernel` — ``exp(-c ||x-y||)``, the isotropic exponential
  suggested by [16] and fit in Fig. 3a.
- :class:`SeparableExponentialKernel` — ``exp(-c(|x1-y1|+|x2-y2|))``, the
  L1-norm kernel of paper eq. (5), separable and analytically solvable but
  physically unrealistic.
- :class:`RadialExponentialKernel` — ``exp(-c | ‖x‖ - ‖y‖ |)``, the kernel
  used by [2]; unrealistic because all points on an origin-centric circle are
  perfectly correlated (paper §3.1).
- :class:`MaternBesselKernel` — the modified-Bessel family of paper eq. (6),
  as extracted from measurements by Xiong et al. [1].
- :class:`LinearConeKernel` — the near-linear isotropic kernel suggested by
  measurement data in [12]; *not* guaranteed valid in 2-D (paper §5.1).
- :class:`SphericalKernel` — the classical geostatistics spherical kernel, a
  valid compactly-supported alternative to the cone.

All kernels operate on points stored as arrays of shape ``(..., 2)`` and
broadcast like numpy ufuncs.  :meth:`CovarianceKernel.matrix` assembles dense
covariance matrices for finite point sets (the grid model / Algorithm 1
substrate), and :func:`gram_row_tiles` evaluates a point set's Gram matrix
in row tiles under a byte budget (every Galerkin assembly and the tiled
operator of :mod:`repro.solvers` run on it).
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
import scipy.special


def _as_points(points: np.ndarray, name: str) -> np.ndarray:
    """Validate and convert an array of 2-D points."""
    arr = np.asarray(points, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError(
            f"{name} must have shape (..., 2) for 2-D die locations, "
            f"got shape {arr.shape}"
        )
    return arr


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between two point sets.

    ``x`` has shape ``(m, 2)`` and ``y`` shape ``(k, 2)``; the result has
    shape ``(m, k)``.  Built from one ``(m, k)`` difference per coordinate,
    squared and added in place, without an ``(m, k, 2)`` temporary; the
    bits equal those of summing the squared difference tensor.
    """
    x = _as_points(x, "x").reshape(-1, 2)
    y = _as_points(y, "y").reshape(-1, 2)
    dx = x[:, None, 0] - y[None, :, 0]
    dy = x[:, None, 1] - y[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


#: Default byte budget of one Gram row tile in :func:`gram_row_tiles`.
DEFAULT_TILE_BYTES = 64 * 1024 * 1024

#: Doubles of kernel-evaluation temporaries per Gram entry (distances,
#: profile intermediates and the value); 6 upper-bounds every kernel
#: family in this module.
KERNEL_EVAL_TEMP_DOUBLES = 6


def gram_tile_rows(
    num_points: int, max_tile_bytes: int = DEFAULT_TILE_BYTES
) -> int:
    """Rows per tile of :func:`gram_row_tiles` over ``num_points`` points."""
    if max_tile_bytes < 1:
        raise ValueError(f"max_tile_bytes must be >= 1, got {max_tile_bytes}")
    per_row = 8 * max(num_points, 1) * KERNEL_EVAL_TEMP_DOUBLES
    return max(1, min(num_points, int(max_tile_bytes) // per_row))


def gram_row_tiles(
    kernel: "CovarianceKernel",
    points: np.ndarray,
    max_tile_bytes: int = DEFAULT_TILE_BYTES,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, kernel.matrix(points[start:stop], points))``.

    The row tiles cover the Gram matrix of ``points`` in order, each with
    :func:`gram_tile_rows` rows, so the kernel's temporaries stay within
    ``max_tile_bytes``.  Every entry is evaluated on its own, so the
    tiles hold the bits of the whole matrix whatever the budget.  Each
    tile is a fresh array the caller may scale in place.
    """
    points = _as_points(points, "points").reshape(-1, 2)
    rows = gram_tile_rows(len(points), max_tile_bytes)
    for start in range(0, len(points), rows):
        stop = min(start + rows, len(points))
        yield start, stop, kernel.matrix(points[start:stop], points)


class CovarianceKernel(abc.ABC):
    """Base class for covariance kernels over the die area.

    Subclasses implement :meth:`__call__`; everything else (covariance matrix
    assembly, validity probing) is shared.
    """

    @abc.abstractmethod
    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate ``K(x, y)`` with numpy broadcasting over leading axes."""

    @property
    def is_isotropic(self) -> bool:
        """True when K depends on x, y only through ``||x - y||``."""
        return isinstance(self, IsotropicKernel)

    def matrix(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense covariance matrix ``M[i, j] = K(x_i, y_j)``.

        With ``y`` omitted the result is the symmetric covariance matrix of
        the point set ``x`` — exactly the ``CovMatrix`` step of the paper's
        Algorithm 1.
        """
        x = _as_points(x, "x").reshape(-1, 2)
        y_arr = x if y is None else _as_points(y, "y").reshape(-1, 2)
        result = self(x[:, None, :], y_arr[None, :, :])
        if y is None:
            # Enforce exact symmetry against floating-point asymmetries.
            result = 0.5 * (result + result.T)
        return result

    def variance_at(self, x: np.ndarray) -> np.ndarray:
        """``K(x, x)``, the (normalized) pointwise variance."""
        x = _as_points(x, "x")
        return self(x, x)

    def is_valid_on(
        self,
        points: np.ndarray,
        *,
        tol: float = 1e-8,
    ) -> bool:
        """Probe non-negative definiteness (paper eq. (2)) on a finite set.

        A ``True`` result does not prove validity over the whole continuous
        domain, but a ``False`` result disproves it — useful for exposing
        invalid kernels such as the 2-D linear cone.
        """
        from repro.utils.linalg import is_positive_semidefinite

        return is_positive_semidefinite(self.matrix(points), tol=tol)

    def __mul__(self, other: "CovarianceKernel | float") -> "CovarianceKernel":
        if isinstance(other, CovarianceKernel):
            return ProductKernel(self, other)
        return ScaledKernel(self, float(other))

    def __rmul__(self, other: float) -> "CovarianceKernel":
        return ScaledKernel(self, float(other))

    def __add__(self, other: "CovarianceKernel") -> "CovarianceKernel":
        if not isinstance(other, CovarianceKernel):
            return NotImplemented
        return SumKernel(self, other)


class IsotropicKernel(CovarianceKernel):
    """Kernel depending only on the separation ``v = ||x - y||₂``.

    Subclasses implement :meth:`profile`, the 1-D correlation-vs-distance
    curve; the 2-D evaluation and matrix assembly are shared.
    """

    @abc.abstractmethod
    def profile(self, v: np.ndarray) -> np.ndarray:
        """Correlation at separation distance ``v >= 0`` (vectorized)."""

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_points(x, "x")
        y = _as_points(y, "y")
        diff = x - y
        v = np.sqrt(np.sum(diff * diff, axis=-1))
        return self.profile(v)

    def matrix(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        x = _as_points(x, "x").reshape(-1, 2)
        y_arr = x if y is None else _as_points(y, "y").reshape(-1, 2)
        result = self.profile(pairwise_distances(x, y_arr))
        if y is None:
            result = 0.5 * (result + result.T)
        return result


class GaussianKernel(IsotropicKernel):
    """Double-exponential (Gaussian / squared-exponential) kernel.

    ``K(x, y) = exp(-c ||x - y||₂²)`` — Fig. 1(a) of the paper, and the
    kernel used for all of its experiments.  Valid (strictly positive
    definite) in every dimension, infinitely smooth, hence very fast KLE
    eigenvalue decay.

    Parameters
    ----------
    c:
        Decay rate; larger ``c`` means correlation drops off faster.  The
        *correlation length* ``1/sqrt(c)`` is the distance at which the
        correlation falls to ``1/e``.
    """

    def __init__(self, c: float):
        if c <= 0.0:
            raise ValueError(f"decay rate c must be positive, got {c}")
        self.c = float(c)

    def profile(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.exp(-self.c * v * v)

    @property
    def correlation_length(self) -> float:
        """Distance at which correlation decays to 1/e."""
        return 1.0 / math.sqrt(self.c)

    def __repr__(self) -> str:
        return f"GaussianKernel(c={self.c:g})"


class ExponentialKernel(IsotropicKernel):
    """Isotropic exponential kernel ``K(x, y) = exp(-c ||x - y||₂)``.

    Suggested by [16] (Liu's correlogram framework).  Valid in every
    dimension but non-differentiable at zero separation, so its KLE spectrum
    decays much more slowly than the Gaussian's — one of the reasons the
    paper prefers the Gaussian fit (Fig. 3a).
    """

    def __init__(self, c: float):
        if c <= 0.0:
            raise ValueError(f"decay rate c must be positive, got {c}")
        self.c = float(c)

    def profile(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.exp(-self.c * v)

    @property
    def correlation_length(self) -> float:
        """Distance at which correlation decays to 1/e."""
        return 1.0 / self.c

    def __repr__(self) -> str:
        return f"ExponentialKernel(c={self.c:g})"


class SeparableExponentialKernel(CovarianceKernel):
    """L1-norm exponential kernel, paper eq. (5).

    ``K(x, y) = exp(-c (|x1-y1| + |x2-y2|))`` separates into the product of
    two 1-D exponential kernels, each of which has a known analytic KLE
    (Ghanem–Spanos [8]; see :mod:`repro.core.analytic`).  The paper uses it
    only as the analytically solvable baseline: its square correlation
    contours are physically unrealistic.
    """

    def __init__(self, c: float):
        if c <= 0.0:
            raise ValueError(f"decay rate c must be positive, got {c}")
        self.c = float(c)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_points(x, "x")
        y = _as_points(y, "y")
        l1 = np.sum(np.abs(x - y), axis=-1)
        return np.exp(-self.c * l1)

    def __repr__(self) -> str:
        return f"SeparableExponentialKernel(c={self.c:g})"


class RadialExponentialKernel(CovarianceKernel):
    """The kernel of Bhardwaj et al. [2]: ``exp(-c |‖x‖₂ - ‖y‖₂|)``.

    Included as the strawman the paper criticizes: every pair of points on a
    circle centred at the origin has correlation exactly 1 regardless of the
    distance between them.  :meth:`circle_correlation` exposes that defect
    directly for tests and documentation.
    """

    def __init__(self, c: float):
        if c <= 0.0:
            raise ValueError(f"decay rate c must be positive, got {c}")
        self.c = float(c)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_points(x, "x")
        y = _as_points(y, "y")
        rx = np.sqrt(np.sum(x * x, axis=-1))
        ry = np.sqrt(np.sum(y * y, axis=-1))
        return np.exp(-self.c * np.abs(rx - ry))

    def circle_correlation(self, radius: float, angle_gap: float) -> float:
        """Correlation between two points ``angle_gap`` apart on one circle.

        Always exactly 1.0 — the physical absurdity the paper calls out.
        """
        del radius, angle_gap  # the defect: the answer never depends on them
        return 1.0

    def __repr__(self) -> str:
        return f"RadialExponentialKernel(c={self.c:g})"


class MaternBesselKernel(IsotropicKernel):
    """Modified-Bessel (Matérn-family) kernel of paper eq. (6) / Xiong [1].

    ``K(v) = 2 (b v / 2)^{s-1} B_{s-1}(b v) / Γ(s-1)`` with ``v = ||x-y||₂``,
    where ``B`` is the modified Bessel function of the second kind and
    ``Γ`` the gamma function.  ``b > 0`` controls the decay rate and
    ``s > 1`` the smoothness.  In standard Matérn notation this is the
    ``ν = s - 1`` member, which is why ``s`` must exceed 1 for the kernel to
    be continuous at zero separation (a KLE requirement, Theorem 1).

    No analytic KLE is known for this family — it is exactly the case that
    motivates the paper's numerical Galerkin method.
    """

    def __init__(self, b: float, s: float):
        if b <= 0.0:
            raise ValueError(f"shape parameter b must be positive, got {b}")
        if s <= 1.0:
            raise ValueError(
                f"shape parameter s must exceed 1 for continuity at v=0, got {s}"
            )
        self.b = float(b)
        self.s = float(s)

    def profile(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        nu = self.s - 1.0
        bv = self.b * v
        with np.errstate(invalid="ignore", over="ignore"):
            values = (
                2.0
                * np.power(bv / 2.0, nu)
                * scipy.special.kv(nu, bv)
                / scipy.special.gamma(nu)
            )
        # kv(nu, 0) diverges but the product limit is Γ(ν) 2^{ν-1}, giving
        # K(0) = 1; patch the removable singularity (and underflow at huge v).
        # Exact v == 0 is the removable singularity itself, not a
        # tolerance question.
        values = np.where(bv == 0.0, 1.0, values)  # repro-lint: disable=REPRO-FLOAT001
        values = np.nan_to_num(values, nan=1.0, posinf=1.0, neginf=0.0)
        return np.clip(values, 0.0, 1.0)

    def __repr__(self) -> str:
        return f"MaternBesselKernel(b={self.b:g}, s={self.s:g})"


class LinearConeKernel(IsotropicKernel):
    """Near-linear isotropic kernel suggested by the measurements of [12].

    ``K(v) = max(0, 1 - v / rho)`` where ``rho`` is the correlation distance
    (the paper fits against a cone with base radius of half the normalized
    chip length).  As [1] shows, this kernel is *not* guaranteed
    non-negative definite in 2-D — it is provided as the fitting *target*
    for Fig. 3(a), not as a sampling kernel.
    """

    def __init__(self, rho: float):
        if rho <= 0.0:
            raise ValueError(f"correlation distance rho must be positive, got {rho}")
        self.rho = float(rho)

    def profile(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.clip(1.0 - v / self.rho, 0.0, None)

    def __repr__(self) -> str:
        return f"LinearConeKernel(rho={self.rho:g})"


class SphericalKernel(IsotropicKernel):
    """Spherical kernel ``K(v) = 1 - 1.5 u + 0.5 u³`` for ``u = v/rho ≤ 1``.

    The classical geostatistics correction of the linear cone: compactly
    supported like the cone but provably non-negative definite in up to
    three dimensions, hence a valid alternative when near-linear decay is
    observed in measurements.
    """

    def __init__(self, rho: float):
        if rho <= 0.0:
            raise ValueError(f"correlation distance rho must be positive, got {rho}")
        self.rho = float(rho)

    def profile(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        u = np.clip(v / self.rho, 0.0, 1.0)
        return 1.0 - 1.5 * u + 0.5 * u**3

    def __repr__(self) -> str:
        return f"SphericalKernel(rho={self.rho:g})"


class ScaledKernel(CovarianceKernel):
    """``scale * K(x, y)`` — models a parameter with variance ≠ 1."""

    def __init__(self, kernel: CovarianceKernel, scale: float):
        if scale < 0.0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        self.kernel = kernel
        self.scale = float(scale)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.scale * self.kernel(x, y)

    def __repr__(self) -> str:
        return f"ScaledKernel({self.kernel!r}, scale={self.scale:g})"


class SumKernel(CovarianceKernel):
    """Sum of kernels — e.g. a spatially correlated plus a purely local part.

    The sum of non-negative definite kernels is non-negative definite, so
    this is always a valid composition.
    """

    def __init__(self, first: CovarianceKernel, second: CovarianceKernel):
        self.first = first
        self.second = second

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.first(x, y) + self.second(x, y)

    def __repr__(self) -> str:
        return f"SumKernel({self.first!r}, {self.second!r})"


class ProductKernel(CovarianceKernel):
    """Pointwise product of kernels (Schur product — validity preserving)."""

    def __init__(self, first: CovarianceKernel, second: CovarianceKernel):
        self.first = first
        self.second = second

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.first(x, y) * self.second(x, y)

    def __repr__(self) -> str:
        return f"ProductKernel({self.first!r}, {self.second!r})"


class AnisotropicGaussianKernel(CovarianceKernel):
    """Gaussian kernel with direction-dependent correlation lengths.

    ``K(x, y) = exp(-(x-y)ᵀ M (x-y))`` where ``M`` is the SPD matrix built
    from decay rates ``c_major``/``c_minor`` along axes rotated by
    ``angle`` radians.  Models layout-induced anisotropy (e.g. stronger
    correlation along the poly direction) that isotropic kernels cannot;
    the paper's numerical method handles it unchanged — which this class
    exists to demonstrate (see the kernel-family tests/benches).

    With ``c_major == c_minor`` it reduces exactly to
    :class:`GaussianKernel`.
    """

    def __init__(self, c_major: float, c_minor: float, angle: float = 0.0):
        if c_major <= 0.0 or c_minor <= 0.0:
            raise ValueError("decay rates must be positive")
        self.c_major = float(c_major)
        self.c_minor = float(c_minor)
        self.angle = float(angle)
        cos_a = math.cos(self.angle)
        sin_a = math.sin(self.angle)
        rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
        self._metric = rotation @ np.diag([self.c_major, self.c_minor]) @ rotation.T

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_points(x, "x")
        y = _as_points(y, "y")
        diff = x - y
        quad = np.einsum("...i,ij,...j->...", diff, self._metric, diff)
        return np.exp(-quad)

    def __repr__(self) -> str:
        return (
            f"AnisotropicGaussianKernel(c_major={self.c_major:g}, "
            f"c_minor={self.c_minor:g}, angle={self.angle:g})"
        )


class NonstationaryVarianceKernel(CovarianceKernel):
    """Spatially modulated variance: ``K(x, y) = σ(x) K₀(x, y) σ(y)``.

    A standard valid construction for *nonstationary* fields (variance
    varying across the die — e.g. larger variation near the die edge)
    built on any valid base kernel: the quadratic form of eq. (2) stays
    non-negative because the modulation folds into the test function.

    Parameters
    ----------
    base:
        A valid covariance kernel (correlation structure).
    sigma_fn:
        Vectorized callable mapping ``(..., 2)`` locations to positive
        per-location standard deviations.
    """

    def __init__(
        self,
        base: CovarianceKernel,
        sigma_fn: Callable[[np.ndarray], np.ndarray],
    ):
        self.base = base
        self.sigma_fn = sigma_fn

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_points(x, "x")
        y = _as_points(y, "y")
        sigma_x = np.asarray(self.sigma_fn(x), dtype=float)
        sigma_y = np.asarray(self.sigma_fn(y), dtype=float)
        if np.any(sigma_x <= 0.0) or np.any(sigma_y <= 0.0):
            raise ValueError("sigma_fn must return strictly positive values")
        return sigma_x * self.base(x, y) * sigma_y

    def __repr__(self) -> str:
        return f"NonstationaryVarianceKernel({self.base!r})"


class NuggetKernel(CovarianceKernel):
    """White-noise ("nugget") kernel: 1 where ``x == y``, 0 elsewhere.

    Models the purely local, spatially *uncorrelated* component of random
    variation (e.g. random dopant fluctuation), typically summed with a
    smooth kernel: ``w * smooth + (1 - w) * nugget``.
    """

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = _as_points(x, "x")
        y = _as_points(y, "y")
        return np.all(x == y, axis=-1).astype(float)

    def __repr__(self) -> str:
        return "NuggetKernel()"
