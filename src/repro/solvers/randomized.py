"""Randomized range-finder eigensolver for the Galerkin KLE problem.

Solves the generalized eigenproblem ``K d = λ Φ d`` (paper eq. (13))
for the ``m`` *leading* pairs only, touching ``K`` through operator
passes alone (each pass evaluates Gram tiles and never materializes
``K``):

1.  Whiten: with ``Φ = diag(a_i)`` the similarity transform
    ``A = Φ^{-1/2} K Φ^{-1/2}`` yields a symmetric standard problem
    whose operator action costs one :class:`~repro.solvers.operator.
    TiledKernelOperator` pass plus two diagonal scalings.
2.  Sketch: draw a Gaussian test matrix ``Ω`` of ``m + oversampling``
    columns (seeded through :func:`repro.utils.rng.spawn_seed_sequences`
    so every solve is deterministic per seed) and capture the range of
    ``A`` with ``Y = A Ω``, refined by ``power_iterations`` rounds of
    orthonormalized power iteration — the Halko–Martinsson–Tropp
    randomized range finder, as used for KLE truncation by Safta–Najm
    ("Numerical Considerations for KLE") and the MLMC exemplar's
    correlated-field sampler.
3.  Project: ``B = Qᵀ A Q`` is a tiny dense symmetric matrix; its
    eigenpairs lift back through ``Q`` and the whitening to Φ-normalized
    ``d`` vectors, exactly the normalization the dense path produces.

Because KLE truncation only ever keeps the leading ``r ≪ n`` pairs, the
sketch captures everything the expansion uses at
O(n · (m + p)) memory — the dense path's O(n²) wall disappears.

Determinism contract: a solve is a pure function of (kernel, mesh,
rule, m, oversampling, power_iterations, seed).  Same-seed solves are
bitwise identical (eigenvector signs are canonicalized so the sketch's
sign indeterminacy never leaks), which is what lets results participate
in the artifact disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.core.kernels import CovarianceKernel
from repro.core.kle import KLEResult
from repro.core.quadrature import CENTROID_RULE, TriangleRule
from repro.mesh.mesh import TriangleMesh
from repro.solvers.operator import TiledKernelOperator, dense_solve_bytes
from repro.utils.rng import spawn_seed_sequences

#: Default extra sketch columns beyond the requested eigenpair count.
DEFAULT_OVERSAMPLING = 8

#: Default orthonormalized power-iteration rounds (each costs one
#: operator pass; 2 is enough for the fast-decaying KLE spectra).
DEFAULT_POWER_ITERATIONS = 2


@dataclass(frozen=True)
class RandomizedSolveReport:
    """What one randomized eigensolve did and what it cost.

    ``peak_bytes`` is the estimated working-set high-water mark of the
    solve (operator tiles + sketch blocks + projected problem);
    ``resident_bytes`` the footprint of the returned eigenpairs; and
    ``dense_bytes`` what the dense assembly + LAPACK path would have
    needed at the same ``n`` — the memory-feasibility comparison the
    benches gate on.
    """

    num_triangles: int
    num_eigenpairs: int
    sketch_size: int
    oversampling: int
    power_iterations: int
    seed: int
    matmat_passes: int
    peak_bytes: int
    resident_bytes: int
    dense_bytes: int


def _validate_options(
    n: int,
    num_eigenpairs: int,
    oversampling: int,
    power_iterations: int,
    seed: int,
) -> None:
    """Shared parameter validation of the randomized solvers."""
    if not 1 <= num_eigenpairs <= n:
        raise ValueError(
            f"num_eigenpairs must be in [1, {n}], got {num_eigenpairs}"
        )
    if oversampling < 0:
        raise ValueError(f"oversampling must be >= 0, got {oversampling}")
    if power_iterations < 0:
        raise ValueError(
            f"power_iterations must be >= 0, got {power_iterations}"
        )
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the largest-|entry| coefficient is > 0.

    Eigenvectors are only defined up to sign, and the sign a randomized
    sketch produces depends on the Gaussian draw.  Canonicalizing makes
    same-seed *and* different-seed solves comparable entry-wise and
    keeps cached results bitwise stable.
    """
    anchors = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[anchors, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] *= -1.0
    return vectors


def randomized_generalized_eigh(
    operator: TiledKernelOperator,
    phi_diag: np.ndarray,
    num_eigenpairs: int,
    *,
    oversampling: int = DEFAULT_OVERSAMPLING,
    power_iterations: int = DEFAULT_POWER_ITERATIONS,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, RandomizedSolveReport]:
    """Leading eigenpairs of ``K d = λ Φ d`` via a randomized sketch.

    ``operator`` applies ``K`` (see :mod:`repro.solvers.operator`);
    ``phi_diag`` is the strictly positive ``Φ`` diagonal (triangle
    areas).  Returns ``(eigenvalues, d_vectors, report)`` with the
    eigenvalues descending and the ``d`` columns Φ-normalized
    (``dᵀ Φ d = 1``), matching
    :func:`repro.utils.linalg.symmetric_generalized_eigh`.
    """
    n = operator.shape[0]
    phi_diag = np.asarray(phi_diag, dtype=float)
    if phi_diag.ndim != 1 or phi_diag.shape[0] != n:
        raise ValueError(
            f"phi_diag shape {phi_diag.shape} incompatible with operator "
            f"shape {operator.shape}"
        )
    if np.any(phi_diag <= 0.0):
        raise ValueError("all Φ diagonal entries must be positive")
    _validate_options(n, num_eigenpairs, oversampling, power_iterations, seed)

    sketch = min(n, num_eigenpairs + oversampling)
    sqrt_phi = np.sqrt(phi_diag)

    def apply_whitened(block: np.ndarray) -> np.ndarray:
        """One pass of ``A = Φ^{-1/2} K Φ^{-1/2}`` on a column block."""
        return operator.matmat(block / sqrt_phi[:, None]) / sqrt_phi[:, None]

    (child,) = spawn_seed_sequences(int(seed), 1)
    rng = np.random.default_rng(child)
    omega = rng.standard_normal((n, sketch))

    # Range finder with orthonormalized power iterations: Q captures the
    # dominant invariant subspace of A.
    basis, _ = np.linalg.qr(apply_whitened(omega))
    for _ in range(power_iterations):
        basis, _ = np.linalg.qr(apply_whitened(basis))

    # Rayleigh–Ritz on the captured subspace: B = Qᵀ A Q.
    image = apply_whitened(basis)
    projected = basis.T @ image
    projected = 0.5 * (projected + projected.T)
    eigvals, eigvecs = np.linalg.eigh(projected)
    order = np.argsort(eigvals)[::-1][:num_eigenpairs]
    eigvals = eigvals[order]
    lifted = basis @ eigvecs[:, order]
    d_vectors = _canonicalize_signs(lifted / sqrt_phi[:, None])

    passes = power_iterations + 2
    peak = (
        operator.peak_bytes(sketch)
        + 8 * sketch * (2 * n + 2 * sketch)  # basis + image + projected pair
    )
    report = RandomizedSolveReport(
        num_triangles=n,
        num_eigenpairs=num_eigenpairs,
        sketch_size=sketch,
        oversampling=oversampling,
        power_iterations=power_iterations,
        seed=int(seed),
        matmat_passes=passes,
        peak_bytes=peak,
        resident_bytes=int(eigvals.nbytes + d_vectors.nbytes),
        dense_bytes=dense_solve_bytes(n),
    )
    return eigvals, d_vectors, report


def solve_randomized_kle(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    num_eigenpairs: int,
    *,
    rule: Union[str, TriangleRule] = CENTROID_RULE,
    oversampling: int = DEFAULT_OVERSAMPLING,
    power_iterations: int = DEFAULT_POWER_ITERATIONS,
    seed: int = 0,
) -> Tuple[KLEResult, RandomizedSolveReport]:
    """One-call randomized KLE: tiled operator + sketch + packaging.

    The matrix-free solver :func:`repro.core.galerkin.solve_kle` runs
    above :data:`~repro.core.galerkin.DENSE_KLE_MAX_TRIANGLES` triangles
    (with the default sketch): builds a
    :class:`~repro.solvers.operator.TiledKernelOperator` with the default
    64 MiB tiles and returns the packaged
    :class:`~repro.core.kle.KLEResult` along with the solve's
    :class:`RandomizedSolveReport`.  To solve on an operator of your own
    (another tile budget), call :func:`randomized_generalized_eigh` with
    it.
    """
    operator = TiledKernelOperator(kernel, mesh, rule=rule)
    eigvals, d_vectors, report = randomized_generalized_eigh(
        operator,
        mesh.areas,
        num_eigenpairs,
        oversampling=oversampling,
        power_iterations=power_iterations,
        seed=seed,
    )
    result = KLEResult(
        eigenvalues=eigvals,
        d_vectors=d_vectors,
        mesh=mesh,
        kernel=kernel,
    )
    return result, report
