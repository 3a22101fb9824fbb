"""Tests for linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.linalg import (
    cholesky_with_jitter,
    is_positive_semidefinite,
    nearest_psd,
    symmetric_generalized_eigh,
)


def spd_matrix(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_cholesky_plain_spd():
    mat = spd_matrix(6, 0)
    upper = cholesky_with_jitter(mat)
    assert np.allclose(upper.T @ upper, mat)
    assert np.allclose(np.tril(upper, -1), 0.0)


def test_cholesky_jitter_rescues_singular():
    """A rank-deficient PSD matrix fails plain Cholesky but succeeds with
    jitter (the correlated-field covariance case)."""
    v = np.array([[1.0], [1.0], [1.0]])
    mat = v @ v.T  # rank 1
    upper = cholesky_with_jitter(mat)
    assert np.allclose(upper.T @ upper, mat, atol=1e-4)


def test_cholesky_rejects_hopeless_matrix():
    mat = -np.eye(4)
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_with_jitter(mat, max_tries=3)


def test_cholesky_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        cholesky_with_jitter(np.zeros((2, 3)))


def test_is_psd_true_cases():
    assert is_positive_semidefinite(np.eye(3))
    assert is_positive_semidefinite(spd_matrix(5, 1))
    assert is_positive_semidefinite(np.zeros((3, 3)))


def test_is_psd_false_cases():
    assert not is_positive_semidefinite(-np.eye(2))
    asym = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert not is_positive_semidefinite(asym)


def test_is_psd_tolerates_roundoff():
    mat = np.eye(3)
    mat[0, 0] = 1.0 - 1e-12
    mat -= 1e-12 * np.ones((3, 3))
    sym = 0.5 * (mat + mat.T)
    assert is_positive_semidefinite(sym)


def test_nearest_psd_projects():
    mat = np.array([[1.0, 0.99], [0.99, 1.0]])
    mat[0, 1] = mat[1, 0] = 1.5  # invalid correlation
    fixed = nearest_psd(mat)
    assert is_positive_semidefinite(fixed)


def test_nearest_psd_identity_on_psd():
    mat = spd_matrix(4, 2)
    assert np.allclose(nearest_psd(mat), mat, atol=1e-10)


def test_generalized_eigh_diagonal_phi():
    """K d = λ Φ d with diagonal Φ equals scipy's dense GEP solution."""
    import scipy.linalg

    rng = np.random.default_rng(3)
    n = 12
    k = spd_matrix(n, 4)
    phi = rng.uniform(0.5, 2.0, n)
    eigvals, d = symmetric_generalized_eigh(k, phi)
    ref_vals = scipy.linalg.eigh(k, np.diag(phi), eigvals_only=True)[::-1]
    assert np.allclose(eigvals, ref_vals, atol=1e-9)
    # Residual check K d = λ Φ d.
    for j in range(n):
        assert np.allclose(
            k @ d[:, j], eigvals[j] * phi * d[:, j], atol=1e-8
        )


def test_generalized_eigh_phi_normalization():
    k = spd_matrix(8, 5)
    phi = np.random.default_rng(6).uniform(0.5, 2.0, 8)
    _, d = symmetric_generalized_eigh(k, phi)
    gram = d.T @ (phi[:, None] * d)
    assert np.allclose(gram, np.eye(8), atol=1e-9)


def test_generalized_eigh_truncation():
    k = spd_matrix(10, 7)
    phi = np.ones(10)
    eigvals, d = symmetric_generalized_eigh(k, phi, num_eigenpairs=4)
    assert eigvals.shape == (4,)
    assert d.shape == (10, 4)
    full_vals, _ = symmetric_generalized_eigh(k, phi)
    assert np.allclose(eigvals, full_vals[:4])


def test_generalized_eigh_validation():
    with pytest.raises(ValueError, match="square"):
        symmetric_generalized_eigh(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="incompatible"):
        symmetric_generalized_eigh(np.eye(3), np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        symmetric_generalized_eigh(np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="num_eigenpairs"):
        symmetric_generalized_eigh(np.eye(2), np.ones(2), num_eigenpairs=0)


@given(st.integers(min_value=2, max_value=8), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cholesky_roundtrip_property(n, seed):
    mat = spd_matrix(n, seed)
    upper = cholesky_with_jitter(mat)
    assert np.allclose(upper.T @ upper, mat, rtol=1e-8, atol=1e-8)


@given(st.integers(min_value=2, max_value=8), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_generalized_eigh_trace_property(n, seed):
    """Σ λ_j = trace(Φ⁻¹K): eigenvalue sum is preserved by the transform."""
    mat = spd_matrix(n, seed)
    phi = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    eigvals, _ = symmetric_generalized_eigh(mat, phi)
    assert np.sum(eigvals) == pytest.approx(np.sum(np.diag(mat) / phi), rel=1e-9)
