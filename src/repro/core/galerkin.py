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

#: Largest mesh, in triangles, whose KLE :func:`solve_kle` solves with
#: LAPACK on the assembled matrix (three n × n doubles, about 400 MB at
#: this size; :func:`repro.solvers.dense_solve_bytes`).  Above it the
#: randomized range finder of :mod:`repro.solvers` takes over.
DENSE_KLE_MAX_TRIANGLES = 4096


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


def kle_eigensolver(num_triangles: int) -> str:
    """The eigensolver :func:`solve_kle` runs on a mesh of this size.

    ``"dense"`` (LAPACK on the assembled Galerkin matrix, every pair) at or
    below :data:`DENSE_KLE_MAX_TRIANGLES` triangles; ``"randomized"`` (the
    range finder of :func:`repro.solvers.solve_randomized_kle` on the tiled
    operator, default sketch, leading pairs only) above it.
    """
    return "dense" if num_triangles <= DENSE_KLE_MAX_TRIANGLES else "randomized"


def kle_cache_key(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    num_eigenpairs: Optional[int] = None,
    rule: Union[str, TriangleRule] = CENTROID_RULE,
) -> str:
    """Cache key of one eigensolve: (kernel, mesh, m, rule, eigensolver).

    The kernel enters through its ``repr`` — every kernel class in
    :mod:`repro.core.kernels` exposes its parameters there — and the mesh
    through :func:`mesh_fingerprint`.  Kernels whose ``repr`` hides state
    (e.g. a :class:`~repro.core.kernels.NonstationaryVarianceKernel`'s
    ``sigma_fn``) should not be disk-cached; pass ``cache=None`` for those.

    The eigensolver is :func:`kle_eigensolver`'s pick for the mesh; on the
    randomized route the sketch (oversampling, power iterations, seed) is
    folded in too, so moving the switch or the default sketch never
    returns another solver's arrays.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)
    m = mesh.num_triangles if num_eigenpairs is None else int(num_eigenpairs)
    method = kle_eigensolver(mesh.num_triangles)
    parts = [
        f"kernel={kernel!r}",
        f"mesh={mesh_fingerprint(mesh)}",
        f"m={m}",
        f"rule={rule.name}",
        f"method={method}",
    ]
    if method == "randomized":
        from repro.solvers import DEFAULT_OVERSAMPLING, DEFAULT_POWER_ITERATIONS

        parts.append(
            f"rand=o{DEFAULT_OVERSAMPLING}_q{DEFAULT_POWER_ITERATIONS}_s0"
        )
    fingerprint = "|".join(parts)
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    return f"kle_{digest[:24]}_m{m}"


def _solve_uncached(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    num_eigenpairs: Optional[int],
    rule: TriangleRule,
) -> KLEResult:
    """Run :func:`kle_eigensolver`'s solver for the mesh."""
    if kle_eigensolver(mesh.num_triangles) == "randomized":
        from repro.solvers import solve_randomized_kle

        if num_eigenpairs is None:
            raise ValueError(
                f"a mesh of {mesh.num_triangles} triangles is solved by the "
                "randomized eigensolver, which needs an explicit "
                "num_eigenpairs"
            )
        result, _report = solve_randomized_kle(
            kernel, mesh, int(num_eigenpairs), rule=rule
        )
        return result
    eigenvalues, d_vectors = symmetric_generalized_eigh(
        assemble_galerkin_matrix(kernel, mesh, rule=rule),
        mesh.areas,
        num_eigenpairs=num_eigenpairs,
    )
    return KLEResult(
        eigenvalues=eigenvalues,
        d_vectors=d_vectors,
        mesh=mesh,
        kernel=kernel,
    )


def solve_kle(
    kernel: CovarianceKernel,
    mesh: TriangleMesh,
    *,
    num_eigenpairs: Optional[int] = None,
    rule: Union[str, TriangleRule] = CENTROID_RULE,
    cache: Union[ArtifactCache, str, None] = None,
) -> KLEResult:
    """Solve ``K d = λ Φ d`` and package the leading eigenpairs as a KLE.

    The paper's core contribution in one call: the piecewise-constant
    basis on ``mesh``, the ``rule`` quadrature of the Galerkin integrals
    and the generalized eigensolve.  The eigensolver follows from the mesh
    size through :func:`kle_eigensolver`: LAPACK on the assembled matrix
    up to :data:`DENSE_KLE_MAX_TRIANGLES` triangles, the matrix-free
    randomized range finder above, which needs ``num_eigenpairs``.

    ``num_eigenpairs`` is how many leading pairs to keep; ``None`` keeps
    all ``nt`` (dense route only).  The paper computes the first 200 and
    then truncates to r = 25 via
    :meth:`repro.core.kle.KLEResult.select_truncation`.

    With ``cache`` given (a directory path or an
    :class:`~repro.utils.artifact_cache.ArtifactCache`), the eigensolve is
    memoized on disk keyed on :func:`kle_cache_key`, turning the dominant
    setup cost of every bench/experiment run into a warm-cache load.
    Corrupt or stale entries are quarantined and regenerated transparently.
    Both solvers are deterministic, so warm hits return the arrays the
    cold solve produced, bit for bit.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)
    if cache is None:
        return _solve_uncached(kernel, mesh, num_eigenpairs, rule)
    if not isinstance(cache, ArtifactCache):
        cache = get_cache("kle", str(cache))
    key = kle_cache_key(kernel, mesh, num_eigenpairs=num_eigenpairs, rule=rule)
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
    result = _solve_uncached(kernel, mesh, num_eigenpairs, rule)
    cache.store(
        key,
        {"eigenvalues": result.eigenvalues, "d_vectors": result.d_vectors},
        schema=KLE_CACHE_SCHEMA,
    )
    return result
