"""Linear-algebra helpers shared by the KLE solver and the MC samplers.

These wrap numpy/scipy routines with the numerical safeguards the paper's
flow needs in practice: covariance matrices assembled from kernels are
positive semi-definite in exact arithmetic but can acquire tiny negative
eigenvalues in floating point, which breaks a plain Cholesky.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg


def cholesky_with_jitter(
    matrix: np.ndarray,
    *,
    max_tries: int = 8,
    initial_jitter: float = 1e-12,
) -> np.ndarray:
    """Upper-triangular Cholesky factor of a nearly-PSD symmetric matrix.

    Attempts a plain Cholesky first; on failure adds an exponentially growing
    multiple of the mean diagonal to the diagonal until the factorization
    succeeds.  Returns ``U`` such that ``U.T @ U`` approximates ``matrix``
    (matching the paper's Algorithm 1, which uses the *upper* factor so that
    samples are generated as ``RandNormal(N, Ng) @ U``).

    Raises :class:`numpy.linalg.LinAlgError` if the matrix cannot be
    factorized even with the largest jitter.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    try:
        return scipy.linalg.cholesky(matrix, lower=False)
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(matrix)))
    if scale <= 0.0:
        scale = 1.0
    jitter = initial_jitter
    eye = np.eye(matrix.shape[0])
    for _ in range(max_tries):
        try:
            return scipy.linalg.cholesky(matrix + jitter * scale * eye, lower=False)
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise np.linalg.LinAlgError(
        f"matrix is too indefinite for Cholesky even with jitter {jitter:g}"
    )


def is_positive_semidefinite(matrix: np.ndarray, *, tol: float = 1e-8) -> bool:
    """Check symmetric positive semi-definiteness via the spectrum.

    ``tol`` is relative to the largest absolute eigenvalue, so small negative
    eigenvalues caused by round-off do not fail the check.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, atol=1e-10, rtol=1e-8):
        return False
    eigvals = np.linalg.eigvalsh(matrix)
    bound = tol * max(1.0, float(np.max(np.abs(eigvals))))
    return bool(eigvals.min() >= -bound)


def nearest_psd(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone (clip negative eigenvalues).

    Used to repair measured/ad-hoc grid correlation matrices, the failure mode
    of grid-based models that the paper (and [1]) highlights.
    """
    matrix = np.asarray(matrix, dtype=float)
    sym = 0.5 * (matrix + matrix.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    clipped = np.clip(eigvals, 0.0, None)
    return (eigvecs * clipped) @ eigvecs.T


def symmetric_generalized_eigh(
    k_matrix: np.ndarray,
    phi_diag: np.ndarray,
    *,
    num_eigenpairs: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``K d = λ Φ d`` with diagonal positive ``Φ``, descending order.

    Rather than forming the unsymmetric ``Φ^{-1} K`` of the paper's eq. (15),
    we use the similarity transform ``e = Φ^{1/2} d`` which yields the
    *symmetric* standard problem ``Φ^{-1/2} K Φ^{-1/2} e = λ e``.  This keeps
    the computed eigenvalues real and the eigenvectors Φ-orthogonal, which the
    KLE reconstruction relies on.  The full LAPACK eigensolver runs on it —
    robust and fast for the few-thousand-triangle meshes of the paper (the
    randomized solver of :mod:`repro.solvers` covers finer meshes).

    Parameters
    ----------
    k_matrix:
        Symmetric Galerkin matrix ``K`` (n × n).
    phi_diag:
        The diagonal of ``Φ`` (triangle areas), all strictly positive.
    num_eigenpairs:
        If given, only the largest ``num_eigenpairs`` pairs are returned.

    Returns
    -------
    (eigenvalues, eigenvectors):
        Eigenvalues sorted descending, eigenvectors as columns of ``D`` with
        the Φ-normalization ``dᵀ Φ d = 1`` (i.e. the eigen*functions* they
        represent are L²(D)-orthonormal).
    """
    k_matrix = np.asarray(k_matrix, dtype=float)
    phi_diag = np.asarray(phi_diag, dtype=float)
    if k_matrix.ndim != 2 or k_matrix.shape[0] != k_matrix.shape[1]:
        raise ValueError(f"K must be square, got shape {k_matrix.shape}")
    if phi_diag.ndim != 1 or phi_diag.shape[0] != k_matrix.shape[0]:
        raise ValueError(
            f"phi_diag shape {phi_diag.shape} incompatible with K {k_matrix.shape}"
        )
    if np.any(phi_diag <= 0.0):
        raise ValueError("all Φ diagonal entries (triangle areas) must be positive")

    if num_eigenpairs is not None and num_eigenpairs < 1:
        raise ValueError(f"num_eigenpairs must be >= 1, got {num_eigenpairs}")

    sqrt_phi = np.sqrt(phi_diag)
    scaled = k_matrix / sqrt_phi[:, None] / sqrt_phi[None, :]
    scaled = 0.5 * (scaled + scaled.T)

    eigvals, eigvecs = np.linalg.eigh(scaled)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if num_eigenpairs is not None:
        num_eigenpairs = min(num_eigenpairs, eigvals.shape[0])
        eigvals = eigvals[:num_eigenpairs]
        eigvecs = eigvecs[:, :num_eigenpairs]
    # Undo the similarity transform: d = Φ^{-1/2} e.
    d_vectors = eigvecs / sqrt_phi[:, None]
    return eigvals, d_vectors
