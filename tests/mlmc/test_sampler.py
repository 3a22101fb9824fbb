"""Coupled-sampler tests: covariance preservation and prefix coupling."""

import tracemalloc

import numpy as np
import pytest

from repro.mlmc import KLERankHierarchy
from repro.mlmc.sampler import CoupledLevelSampler


@pytest.fixture(scope="module")
def gate_points(rng_module):
    """A few dozen pseudo-gate locations spread over the die."""
    return rng_module.uniform(-0.95, 0.95, size=(40, 2))


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(77)


@pytest.fixture(scope="module")
def coupled(gaussian_kle, gate_points):
    """One coupled level: rank-6 coarse, rank-14 fine."""
    models = KLERankHierarchy(gaussian_kle, [6, 14]).models()
    return CoupledLevelSampler(models[1], models[0], gate_points)


def test_covariance_preservation_property(coupled):
    """Sample covariance of each coupled stream matches its truncated-KLE
    covariance: rank-14 for the fine draws, rank-6 for the coarse prefix,
    and the fine/coarse *cross*-covariance equals the coarse covariance
    (the defining property of nested-prefix coupling)."""
    draw = coupled.generate(40_000, seed=5)
    fine = draw.fine_fields["L"]
    coarse = draw.coarse_fields["L"]
    fine_centered = fine - fine.mean(axis=0)
    coarse_centered = coarse - coarse.mean(axis=0)
    n = fine.shape[0]

    sample_fine = fine_centered.T @ fine_centered / (n - 1)
    sample_coarse = coarse_centered.T @ coarse_centered / (n - 1)
    sample_cross = fine_centered.T @ coarse_centered / (n - 1)

    np.testing.assert_allclose(
        sample_fine, coupled.covariance_fine(), atol=0.06
    )
    np.testing.assert_allclose(
        sample_coarse, coupled.covariance_coarse(), atol=0.06
    )
    np.testing.assert_allclose(
        sample_cross, coupled.covariance_coarse(), atol=0.06
    )


def test_coarse_is_prefix_of_fine_xi(coupled):
    """The coarse field must be a deterministic function of the fine ξ
    prefix — regenerate it by hand from the returned normals."""
    draw = coupled.generate(50, seed=9)
    for coarse in coupled.coarse_basis.parameters:
        xi = draw.xi[coarse.name]
        expected = (xi[:, : coarse.rank] @ coarse.d_lambda.T)[
            :, coarse.triangles
        ]
        np.testing.assert_array_equal(draw.coarse_fields[coarse.name], expected)


def test_same_seed_reproduces_draw(coupled):
    one = coupled.generate(20, seed=123)
    two = coupled.generate(20, seed=123)
    for name in one.xi:
        np.testing.assert_array_equal(one.xi[name], two.xi[name])
        np.testing.assert_array_equal(
            one.fine_fields[name], two.fine_fields[name]
        )


def test_field_gathers_can_be_skipped(coupled, gate_points):
    """A draw holds only ξ until a field is read: generating it gathers
    no (N, N_g) field and builds no (N, nt) triangle matrix."""
    num_samples = 4000
    tracemalloc.start()
    try:
        draw = coupled.generate(num_samples, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    xi = draw.fine_fields.xi
    assert xi.shape == (num_samples, 4 * 14)
    assert draw.coarse_fields.xi.shape == (num_samples, 4 * 6)
    np.testing.assert_array_equal(draw.coarse_fields.xi[:, :6], xi[:, :6])
    # The per-parameter draws, their concatenation and the coarse prefix.
    assert peak < 3 * xi.nbytes
    field = draw.fine_fields["L"]
    assert field.shape == (num_samples, len(gate_points))
    assert field.flags.c_contiguous


def test_validation_errors(gaussian_kle, gate_points):
    models = KLERankHierarchy(gaussian_kle, [6, 14]).models()
    with pytest.raises(ValueError, match="coarse rank exceeds"):
        CoupledLevelSampler(models[0], models[1], gate_points)
    sampler = CoupledLevelSampler(models[1], models[0], gate_points)
    with pytest.raises(ValueError, match="num_samples"):
        sampler.generate(0)
    with pytest.raises(ValueError, match="no coarse member"):
        CoupledLevelSampler(models[1], None, gate_points).covariance_coarse()
