"""Galerkin discretization of the KLE integral equation (paper §3.2, §4).

The homogeneous Fredholm equation of the second kind

    ∫_D K(x, y) f(y) dy = λ f(x)                                   (eq. 4)

is projected onto the space of piecewise-constant functions over a
triangulation of the die (eq. 17).  With that orthogonal basis the Galerkin
criterion (eq. 10) reduces to the generalized eigenvalue problem

    K d = λ Φ d,        K_ik = ∬ K(x, y) dx dy,   Φ = diag(a_i)    (eq. 13/18)

and centroid quadrature approximates ``K_ik ≈ K(c_i, c_k) a_i a_k``
(eq. 21), with error vanishing linearly in the maximum triangle side h
(Theorem 2).  Higher-order quadrature rules are supported for the accuracy
ablation.  Every rule evaluates the kernel in the row tiles of
:func:`repro.core.kernels.gram_row_tiles`, the loop the matrix-free
operator of :mod:`repro.solvers` runs on too.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

from repro.core.kernels import (
    DEFAULT_TILE_BYTES,
    CovarianceKernel,
    gram_row_tiles,
)
from repro.core.kle import KLEResult
from repro.core.quadrature import CENTROID_RULE, TriangleRule, get_rule
from repro.mesh.mesh import TriangleMesh
from repro.utils.artifact_cache import ArtifactCache, get_cache
from repro.utils.linalg import symmetric_generalized_eigh

#: Application schema tag of cached eigensolves; bump to invalidate old
#: entries when the solver's numerical behavior changes.
KLE_CACHE_SCHEMA = "kle-eigensolve-v1"

#: Eigensolver methods :func:`solve_kle` accepts (see
#: :func:`repro.utils.linalg.symmetric_generalized_eigh` for the first
#: two; ``"randomized"`` routes through :mod:`repro.solvers`).
KLE_METHODS = ("dense", "arpack", "randomized")


def assemble_galerkin_matrix(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    rule: Union[str, TriangleRule] = CENTROID_RULE,
    max_tile_bytes: int = DEFAULT_TILE_BYTES,
) -> np.ndarray:
    """Assemble the symmetric Galerkin matrix ``K`` of eq. (13).

    With the centroid rule this is exactly the paper's eq. (21):
    ``K_ik = K(c_i, c_k) a_i a_k``.  With a ``q``-point rule each entry is a
    double quadrature sum over the two triangles' nodes.  Either way the
    kernel is evaluated in :func:`~repro.core.kernels.gram_row_tiles` of at
    most ``max_tile_bytes`` temporaries, so peak memory is the result plus
    one tile.  Tiles hold the bits of the whole evaluation and the row sums
    keep their order, so the budget never changes a bit of the result.

    Returns the dense ``(nt, nt)`` matrix, exactly symmetric.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)
    num_triangles = mesh.num_triangles
    if num_triangles == 0:
        raise ValueError("cannot assemble a Galerkin matrix on an empty mesh")

    q = rule.num_points
    if q == 1:
        points, weights = mesh.centroids, mesh.areas
    else:
        points, weights = rule.points_on_mesh(mesh)  # (nt*q, 2), (nt*q,)
    result = np.zeros((num_triangles, num_triangles), dtype=float)
    for start, stop, tile in gram_row_tiles(kernel, points, max_tile_bytes):
        tile *= weights[start:stop, None]
        tile *= weights
        if q == 1:
            result[start:stop] = tile
        else:
            # K_ik sums diag(w) K(points, points) diag(w) over both
            # triangles' nodes: reduce columns to per-triangle sums, then
            # add each row to its triangle in node order (a tile may split
            # a triangle's nodes).
            rows = tile.reshape(stop - start, num_triangles, q).sum(axis=2)
            np.add.at(result, np.arange(start, stop) // q, rows)
    result += result.T
    result *= 0.5
    return result


class GalerkinKLE:
    """End-to-end numerical KLE solver (the paper's core contribution).

    Combines the three steps left open in §3.2: the piecewise-constant basis
    on a triangulation, the quadrature evaluation of the Galerkin integrals,
    and the (generalized) eigensolve.

    Example
    -------
    >>> from repro.core import GaussianKernel, GalerkinKLE
    >>> from repro.mesh import structured_rectangle_mesh
    >>> mesh = structured_rectangle_mesh(-1, -1, 1, 1, 12, 12)
    >>> kle = GalerkinKLE(GaussianKernel(c=1.4), mesh).solve(num_eigenpairs=25)
    >>> kle.eigenvalues[0] > kle.eigenvalues[1] > 0
    True
    """

    def __init__(
        self,
        kernel: CovarianceKernel,
        mesh: TriangleMesh,
        *,
        rule: Union[str, TriangleRule] = CENTROID_RULE,
    ):
        self.kernel = kernel
        self.mesh = mesh
        self.rule = get_rule(rule) if isinstance(rule, str) else rule
        self._galerkin_matrix: Optional[np.ndarray] = None

    @property
    def galerkin_matrix(self) -> np.ndarray:
        """The assembled ``K`` matrix (cached after first use)."""
        if self._galerkin_matrix is None:
            self._galerkin_matrix = assemble_galerkin_matrix(
                self.kernel, self.mesh, rule=self.rule
            )
        return self._galerkin_matrix

    def solve(
        self,
        num_eigenpairs: Optional[int] = None,
        *,
        method: str = "dense",
        oversampling: Optional[int] = None,
        power_iterations: Optional[int] = None,
        solver_seed: int = 0,
    ) -> KLEResult:
        """Solve ``K d = λ Φ d`` and package the leading eigenpairs.

        Parameters
        ----------
        num_eigenpairs:
            How many leading pairs to keep; ``None`` keeps all ``nt``.  The
            paper computes the first 200 and then truncates to r = 25 via
            :meth:`repro.core.kle.KLEResult.select_truncation`.
        method:
            ``"dense"`` (LAPACK, default), ``"arpack"`` (iterative
            Lanczos, leading pairs only — equivalent to the Matlab
            ``eigs`` the paper used), or ``"randomized"`` (sketched
            solve via :mod:`repro.solvers`; above
            :data:`~repro.solvers.DENSE_OPERATOR_THRESHOLD` triangles it
            never assembles the n × n matrix, the only path that scales
            to very fine meshes).
        oversampling, power_iterations, solver_seed:
            Randomized-method knobs (ignored otherwise): extra sketch
            columns, subspace-refinement rounds and the
            :func:`repro.utils.rng.spawn_seed_sequences` root seed that
            makes the solve deterministic.
        """
        if method == "randomized":
            from repro.solvers import (
                DEFAULT_OVERSAMPLING,
                DEFAULT_POWER_ITERATIONS,
                solve_randomized_kle,
            )

            if num_eigenpairs is None:
                raise ValueError(
                    "method='randomized' requires an explicit num_eigenpairs"
                )
            result, _report = solve_randomized_kle(
                self.kernel,
                self.mesh,
                int(num_eigenpairs),
                rule=self.rule,
                oversampling=(
                    DEFAULT_OVERSAMPLING if oversampling is None
                    else int(oversampling)
                ),
                power_iterations=(
                    DEFAULT_POWER_ITERATIONS if power_iterations is None
                    else int(power_iterations)
                ),
                seed=int(solver_seed),
            )
            return result
        eigenvalues, d_vectors = symmetric_generalized_eigh(
            self.galerkin_matrix,
            self.mesh.areas,
            num_eigenpairs=num_eigenpairs,
            method=method,
        )
        return KLEResult(
            eigenvalues=eigenvalues,
            d_vectors=d_vectors,
            mesh=self.mesh,
            kernel=self.kernel,
        )


def mesh_fingerprint(mesh: TriangleMesh) -> str:
    """SHA-256 digest of a mesh's exact geometry and connectivity.

    Two meshes share a fingerprint iff their vertex coordinates and
    triangle index arrays are bitwise identical — the right equivalence for
    keying cached eigensolves, since the Galerkin matrix is a pure function
    of those arrays (plus the kernel).
    """
    digest = hashlib.sha256()
    vertices = np.ascontiguousarray(mesh.vertices, dtype=np.float64)
    triangles = np.ascontiguousarray(mesh.triangles, dtype=np.int64)
    digest.update(str(vertices.shape).encode())
    digest.update(vertices.tobytes())
    digest.update(str(triangles.shape).encode())
    digest.update(triangles.tobytes())
    return digest.hexdigest()


def kle_cache_key(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    num_eigenpairs: Optional[int] = None,
    rule: Union[str, TriangleRule] = CENTROID_RULE,
    method: str = "dense",
    oversampling: Optional[int] = None,
    power_iterations: Optional[int] = None,
    solver_seed: Optional[int] = None,
) -> str:
    """Cache key of one eigensolve: (kernel, mesh, m, rule, method).

    The kernel enters through its ``repr`` — every kernel class in
    :mod:`repro.core.kernels` exposes its parameters there — and the mesh
    through :func:`mesh_fingerprint`.  Kernels whose ``repr`` hides state
    (e.g. a :class:`~repro.core.kernels.NonstationaryVarianceKernel`'s
    ``sigma_fn``) should not be disk-cached; pass ``cache=None`` for those.

    For ``method="randomized"`` the sketch parameters (oversampling,
    power iterations, seed) are folded in as well: a randomized solve is
    a pure function of those too, and two solves that could differ must
    never share a key.  Keys of the deterministic methods are unchanged
    by the extra arguments, so existing cache entries stay valid.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)
    m = mesh.num_triangles if num_eigenpairs is None else int(num_eigenpairs)
    parts = [
        f"kernel={kernel!r}",
        f"mesh={mesh_fingerprint(mesh)}",
        f"m={m}",
        f"rule={rule.name}",
        f"method={method}",
    ]
    if method == "randomized":
        from repro.solvers import DEFAULT_OVERSAMPLING, DEFAULT_POWER_ITERATIONS

        p = DEFAULT_OVERSAMPLING if oversampling is None else int(oversampling)
        q = (
            DEFAULT_POWER_ITERATIONS if power_iterations is None
            else int(power_iterations)
        )
        s = 0 if solver_seed is None else int(solver_seed)
        parts.append(f"rand=o{p}_q{q}_s{s}")
    fingerprint = "|".join(parts)
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    return f"kle_{digest[:24]}_m{m}"


def solve_kle(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    num_eigenpairs: Optional[int] = None,
    rule: Union[str, TriangleRule] = CENTROID_RULE,
    method: str = "dense",
    cache: Union[ArtifactCache, str, None] = None,
    oversampling: Optional[int] = None,
    power_iterations: Optional[int] = None,
    solver_seed: int = 0,
) -> KLEResult:
    """One-call convenience wrapper around :class:`GalerkinKLE`.

    With ``cache`` given (a directory path or an
    :class:`~repro.utils.artifact_cache.ArtifactCache`), the eigensolve is
    memoized on disk keyed on :func:`kle_cache_key`, turning the dominant
    setup cost of every bench/experiment run into a warm-cache load.
    Corrupt or stale entries are quarantined and regenerated transparently.

    ``method="randomized"`` routes through :mod:`repro.solvers`
    (matrix-free, leading pairs only); its sketch parameters
    (``oversampling``, ``power_iterations``, ``solver_seed``) are part
    of the cache key, so warm hits return the bitwise-identical arrays
    the cold solve produced.
    """
    if method not in KLE_METHODS:
        raise ValueError(
            f"unknown KLE method {method!r}; expected one of {KLE_METHODS}"
        )
    solver = GalerkinKLE(kernel, mesh, rule=rule)
    if cache is None:
        return solver.solve(
            num_eigenpairs=num_eigenpairs,
            method=method,
            oversampling=oversampling,
            power_iterations=power_iterations,
            solver_seed=solver_seed,
        )
    if not isinstance(cache, ArtifactCache):
        cache = get_cache("kle", str(cache))
    key = kle_cache_key(
        kernel, mesh, num_eigenpairs=num_eigenpairs, rule=solver.rule,
        method=method, oversampling=oversampling,
        power_iterations=power_iterations, solver_seed=solver_seed,
    )
    cached = cache.load(
        key,
        schema=KLE_CACHE_SCHEMA,
        required_keys=("eigenvalues", "d_vectors"),
    )
    if cached is not None and cached["d_vectors"].shape == (
        mesh.num_triangles,
        len(cached["eigenvalues"]),
    ):
        return KLEResult(
            eigenvalues=cached["eigenvalues"],
            d_vectors=cached["d_vectors"],
            mesh=mesh,
            kernel=kernel,
        )
    result = solver.solve(
        num_eigenpairs=num_eigenpairs,
        method=method,
        oversampling=oversampling,
        power_iterations=power_iterations,
        solver_seed=solver_seed,
    )
    cache.store(
        key,
        {"eigenvalues": result.eigenvalues, "d_vectors": result.d_vectors},
        schema=KLE_CACHE_SCHEMA,
    )
    return result
