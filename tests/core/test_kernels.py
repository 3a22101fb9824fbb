"""Unit and property tests for the covariance-kernel library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    ExponentialKernel,
    GaussianKernel,
    LinearConeKernel,
    MaternBesselKernel,
    NuggetKernel,
    ProductKernel,
    RadialExponentialKernel,
    ScaledKernel,
    SeparableExponentialKernel,
    SphericalKernel,
    SumKernel,
    gram_row_tiles,
    gram_tile_rows,
    pairwise_distances,
)

DIE = (-1.0, -1.0, 1.0, 1.0)

ALL_VALID_KERNELS = [
    GaussianKernel(2.7),
    ExponentialKernel(1.5),
    SeparableExponentialKernel(1.0),
    MaternBesselKernel(b=2.0, s=2.5),
    SphericalKernel(1.2),
]

coords = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
points = st.tuples(coords, coords)


def as_arr(p):
    return np.asarray(p, dtype=float)


# ---------------------------------------------------------------------------
# Generic kernel contract.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ALL_VALID_KERNELS, ids=repr)
def test_unit_variance_on_diagonal(kernel):
    pts = np.array([[0.0, 0.0], [0.3, -0.7], [1.0, 1.0], [-1.0, 0.2]])
    assert np.allclose(kernel.variance_at(pts), 1.0, atol=1e-9)


@pytest.mark.parametrize("kernel", ALL_VALID_KERNELS, ids=repr)
def test_symmetry(kernel):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (20, 2))
    y = rng.uniform(-1, 1, (20, 2))
    assert np.allclose(kernel(x, y), kernel(y, x), atol=1e-12)


@pytest.mark.parametrize("kernel", ALL_VALID_KERNELS, ids=repr)
def test_values_bounded_by_one(kernel):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (50, 2))
    y = rng.uniform(-1, 1, (50, 2))
    values = kernel(x, y)
    assert np.all(values <= 1.0 + 1e-12)
    assert np.all(values >= -1e-12)


@pytest.mark.parametrize("kernel", ALL_VALID_KERNELS, ids=repr)
def test_matrix_is_psd_on_random_points(kernel):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, (60, 2))
    eigvals = np.linalg.eigvalsh(kernel.matrix(pts))
    assert eigvals.min() >= -1e-8 * max(1.0, eigvals.max())


@pytest.mark.parametrize("kernel", ALL_VALID_KERNELS, ids=repr)
def test_matrix_shape_and_symmetry(kernel):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (17, 2))
    mat = kernel.matrix(pts)
    assert mat.shape == (17, 17)
    assert np.array_equal(mat, mat.T)
    other = rng.uniform(-1, 1, (5, 2))
    assert kernel.matrix(pts, other).shape == (17, 5)


@pytest.mark.parametrize("kernel", ALL_VALID_KERNELS, ids=repr)
def test_broadcasting(kernel):
    x = np.zeros((4, 1, 2))
    y = np.random.default_rng(4).uniform(-1, 1, (1, 6, 2))
    assert kernel(x, y).shape == (4, 6)


def test_bad_point_shape_rejected():
    kernel = GaussianKernel(1.0)
    with pytest.raises(ValueError, match=r"\(\.\.\., 2\)"):
        kernel(np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# Gaussian kernel specifics.
# ---------------------------------------------------------------------------
def test_gaussian_profile_values():
    kernel = GaussianKernel(2.0)
    v = np.array([0.0, 0.5, 1.0])
    assert np.allclose(kernel.profile(v), np.exp(-2.0 * v * v))


def test_gaussian_correlation_length():
    kernel = GaussianKernel(4.0)
    assert kernel.correlation_length == pytest.approx(0.5)
    assert kernel.profile(np.array([0.5]))[0] == pytest.approx(np.exp(-1.0))


def test_gaussian_requires_positive_c():
    with pytest.raises(ValueError, match="positive"):
        GaussianKernel(0.0)
    with pytest.raises(ValueError, match="positive"):
        GaussianKernel(-1.0)


@given(points, points)
@settings(max_examples=50, deadline=None)
def test_gaussian_monotone_decay_property(p, q):
    """K only depends on distance and decays monotonically with it."""
    kernel = GaussianKernel(2.7)
    d = np.hypot(p[0] - q[0], p[1] - q[1])
    val = float(kernel(as_arr(p), as_arr(q)))
    further = float(kernel.profile(np.array([d + 0.1]))[0])
    assert further <= val + 1e-12


# ---------------------------------------------------------------------------
# Exponential kernels.
# ---------------------------------------------------------------------------
def test_exponential_profile_values():
    kernel = ExponentialKernel(3.0)
    v = np.array([0.0, 0.2, 1.0])
    assert np.allclose(kernel.profile(v), np.exp(-3.0 * v))
    assert kernel.correlation_length == pytest.approx(1.0 / 3.0)


def test_separable_is_product_of_1d():
    kernel = SeparableExponentialKernel(1.3)
    x = np.array([0.2, -0.4])
    y = np.array([-0.5, 0.9])
    expected = np.exp(-1.3 * abs(0.2 + 0.5)) * np.exp(-1.3 * abs(-0.4 - 0.9))
    assert float(kernel(x, y)) == pytest.approx(expected)


def test_separable_square_contours_differ_from_isotropic():
    """L1 kernel treats (d, 0) and (d/sqrt2, d/sqrt2) differently."""
    kernel = SeparableExponentialKernel(1.0)
    d = 0.6
    straight = float(kernel(np.zeros(2), np.array([d, 0.0])))
    diagonal = float(
        kernel(np.zeros(2), np.array([d / np.sqrt(2), d / np.sqrt(2)]))
    )
    assert straight != pytest.approx(diagonal)


def test_radial_kernel_circle_defect():
    """All points on an origin-centred circle are perfectly correlated —
    the physical absurdity of the [2] kernel the paper calls out."""
    kernel = RadialExponentialKernel(2.0)
    a = 0.8 * np.array([1.0, 0.0])
    b = 0.8 * np.array([-1.0, 0.0])  # diametrically opposite, distance 1.6
    assert float(kernel(a, b)) == pytest.approx(1.0)
    assert kernel.circle_correlation(0.8, np.pi) == 1.0


def test_radial_kernel_decays_across_radii():
    kernel = RadialExponentialKernel(2.0)
    a = np.array([0.2, 0.0])
    b = np.array([0.9, 0.0])
    assert float(kernel(a, b)) == pytest.approx(np.exp(-2.0 * 0.7))


# ---------------------------------------------------------------------------
# Matern/Bessel kernel (paper eq. (6)).
# ---------------------------------------------------------------------------
def test_matern_is_one_at_zero_separation():
    kernel = MaternBesselKernel(b=2.0, s=2.5)
    assert float(kernel(np.zeros(2), np.zeros(2))) == pytest.approx(1.0)


def test_matern_decays_and_stays_in_unit_interval():
    kernel = MaternBesselKernel(b=3.0, s=1.8)
    v = np.linspace(0.0, 4.0, 100)
    prof = kernel.profile(v)
    assert np.all(np.diff(prof) <= 1e-12)
    assert prof[0] == pytest.approx(1.0)
    assert np.all((prof >= 0.0) & (prof <= 1.0))


def test_matern_limit_large_s_smoother_than_small_s():
    """Larger smoothness s keeps correlation higher at short range."""
    v = np.array([0.2])
    smooth = MaternBesselKernel(b=2.0, s=4.0).profile(v)[0]
    rough = MaternBesselKernel(b=2.0, s=1.2).profile(v)[0]
    assert smooth > rough


def test_matern_half_integer_matches_closed_form():
    """nu = 1/2 (s = 1.5) Matern is exactly exp(-b v)."""
    kernel = MaternBesselKernel(b=2.0, s=1.5)
    v = np.linspace(0.01, 2.0, 50)
    assert np.allclose(kernel.profile(v), np.exp(-2.0 * v), atol=1e-10)


def test_matern_parameter_validation():
    with pytest.raises(ValueError, match="b must be positive"):
        MaternBesselKernel(b=0.0, s=2.0)
    with pytest.raises(ValueError, match="s must exceed 1"):
        MaternBesselKernel(b=1.0, s=1.0)


def test_matern_huge_separation_underflow_is_clean():
    kernel = MaternBesselKernel(b=5.0, s=2.0)
    prof = kernel.profile(np.array([500.0]))
    assert np.isfinite(prof).all()
    assert prof[0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Cone / spherical kernels.
# ---------------------------------------------------------------------------
def test_linear_cone_profile():
    kernel = LinearConeKernel(2.0)
    v = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.allclose(kernel.profile(v), [1.0, 0.5, 0.0, 0.0])


def test_linear_cone_invalid_in_2d():
    """The paper's §5.1 caveat: the 2-D cone can be indefinite."""
    from repro.core.validation import probe_kernel_validity

    assert not probe_kernel_validity(
        LinearConeKernel(1.0), DIE, num_points=250, seed=3
    )


def test_spherical_kernel_valid_in_2d():
    from repro.core.validation import probe_kernel_validity

    assert probe_kernel_validity(SphericalKernel(1.0), DIE, seed=3)


def test_spherical_profile_endpoints():
    kernel = SphericalKernel(1.5)
    assert kernel.profile(np.array([0.0]))[0] == pytest.approx(1.0)
    assert kernel.profile(np.array([1.5]))[0] == pytest.approx(0.0)
    assert kernel.profile(np.array([5.0]))[0] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Composition.
# ---------------------------------------------------------------------------
def test_scaled_kernel_by_operator():
    base = GaussianKernel(1.0)
    scaled = 0.25 * base
    x = np.zeros(2)
    y = np.array([0.5, 0.0])
    assert float(scaled(x, y)) == pytest.approx(0.25 * float(base(x, y)))
    assert isinstance(scaled, ScaledKernel)


def test_sum_kernel_mixture_with_nugget():
    """0.8 spatial + 0.2 white noise: classic nugget decomposition."""
    mixed = 0.8 * GaussianKernel(2.0) + 0.2 * NuggetKernel()
    same = np.array([0.1, 0.1])
    far = np.array([0.9, -0.9])
    assert float(mixed(same, same)) == pytest.approx(1.0)
    assert float(mixed(same, far)) < 0.8


def test_product_kernel_values():
    prod = ProductKernel(GaussianKernel(1.0), ExponentialKernel(1.0))
    x = np.zeros(2)
    y = np.array([0.3, 0.4])  # distance 0.5
    assert float(prod(x, y)) == pytest.approx(
        np.exp(-0.25) * np.exp(-0.5)
    )


def test_sum_of_valid_kernels_is_psd():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (40, 2))
    mixed = SumKernel(GaussianKernel(3.0), ExponentialKernel(1.0))
    eigvals = np.linalg.eigvalsh(0.5 * mixed.matrix(pts))
    assert eigvals.min() >= -1e-9


def test_nugget_kernel_identity_matrix():
    pts = np.random.default_rng(6).uniform(-1, 1, (10, 2))
    assert np.array_equal(NuggetKernel().matrix(pts), np.eye(10))


def test_scaled_kernel_rejects_negative_scale():
    with pytest.raises(ValueError, match="non-negative"):
        ScaledKernel(GaussianKernel(1.0), -0.5)


# ---------------------------------------------------------------------------
# pairwise_distances helper.
# ---------------------------------------------------------------------------
def test_pairwise_distances_matches_numpy():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, (8, 2))
    y = rng.uniform(-1, 1, (5, 2))
    expected = np.linalg.norm(x[:, None] - y[None, :], axis=2)
    assert np.allclose(pairwise_distances(x, y), expected)


@pytest.mark.parametrize(
    "m, k, scale", [(1, 1, 1.0), (7, 3, 1e-3), (60, 45, 1.0), (20, 20, 1e6)]
)
def test_pairwise_distances_bitwise_equal_to_the_difference_tensor(m, k, scale):
    """Per-coordinate squares added in place give the bits of summing the
    squared ``(m, k, 2)`` difference tensor (a length-2 sum is one add)."""
    rng = np.random.default_rng(m + k)
    x = rng.normal(size=(m, 2)) * scale
    y = rng.normal(size=(k, 2)) * scale
    for a, b in ((x, y), (x, x)):
        diff = a[:, None, :] - b[None, :, :]
        expected = np.sqrt(np.sum(diff * diff, axis=-1))
        assert np.array_equal(pairwise_distances(a, b), expected)


def test_gram_row_tiles_cover_the_matrix_in_order():
    """Tiles of ``gram_tile_rows`` rows stack to the whole Gram matrix,
    bit for bit, whatever the budget."""
    points = np.random.default_rng(5).uniform(-1, 1, (37, 2))
    kernel = GaussianKernel(2.0)
    whole = kernel.matrix(points, points)
    for budget, rows in ((1, 1), (8 * 37 * 6 * 5, 5), (1 << 30, 37)):
        assert gram_tile_rows(37, budget) == rows
        tiles = list(gram_row_tiles(kernel, points, budget))
        bounds = [(start, stop) for start, stop, _ in tiles]
        expected = [(a, min(a + rows, 37)) for a in range(0, 37, rows)]
        assert bounds == expected
        assert np.array_equal(np.vstack([tile for *_, tile in tiles]), whole)
    with pytest.raises(ValueError, match="max_tile_bytes"):
        next(gram_row_tiles(kernel, points, 0))
    # The default 64 MiB at 6 doubles an entry: the paper mesh's 1,580
    # centroids make two tiles.
    assert gram_tile_rows(1580) == 884


@given(points, points)
@settings(max_examples=40, deadline=None)
def test_pairwise_distance_symmetry_property(p, q):
    d1 = pairwise_distances(as_arr([p]), as_arr([q]))[0, 0]
    d2 = pairwise_distances(as_arr([q]), as_arr([p]))[0, 0]
    assert d1 == pytest.approx(d2, abs=1e-12)


@given(st.lists(points, min_size=2, max_size=8))
@settings(max_examples=30, deadline=None)
def test_kernel_matrix_psd_property(point_list):
    """Hypothesis sweep of eq. (2): Gaussian kernel matrices are PSD for
    arbitrary finite point sets."""
    pts = np.asarray(point_list, dtype=float)
    mat = GaussianKernel(2.0).matrix(pts)
    eigvals = np.linalg.eigvalsh(mat)
    assert eigvals.min() >= -1e-8 * max(1.0, eigvals.max())
