"""Cache-key discipline of the randomized eigensolve path.

Above the size switch ``solve_kle`` runs the randomized solver with the
default sketch, a pure function of (kernel, mesh, rank, rule) — so the
disk cache must hit bitwise on an identical tuple, miss on *any* changed
coordinate or on the other route, and survive poisoned entries by
quarantine + rebuild (same contract as
``tests/utils/test_artifact_cache.py``).  The switch is moved to 64
triangles so the small test mesh takes the randomized route.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.core import galerkin
from repro.core.galerkin import (
    kle_cache_key,
    kle_eigensolver,
    mesh_fingerprint,
    solve_kle,
)
from repro.core.kernels import GaussianKernel
from repro.mesh.structured import structured_rectangle_mesh
from repro.utils.artifact_cache import ArtifactCache

KERNEL = GaussianKernel(c=1.4)
RANK = 10


@pytest.fixture(scope="module")
def mesh():
    return structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 7, 7)


@pytest.fixture(autouse=True)
def randomized_route(monkeypatch, mesh):
    monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", 64)
    assert kle_eigensolver(mesh.num_triangles) == "randomized"


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(str(tmp_path), name="kle-test")


def randomized_key(mesh, **overrides):
    params = dict(num_eigenpairs=RANK)
    params.update(overrides)
    return kle_cache_key(KERNEL, mesh, **params)


def test_same_parameters_hit_bitwise(mesh, cache):
    cold = solve_kle(KERNEL, mesh, num_eigenpairs=RANK, cache=cache)
    assert cache.stats.stores == 1
    warm = solve_kle(KERNEL, mesh, num_eigenpairs=RANK, cache=cache)
    assert cache.stats.hits == 1
    np.testing.assert_array_equal(cold.eigenvalues, warm.eigenvalues)
    np.testing.assert_array_equal(cold.d_vectors, warm.d_vectors)


def test_every_randomized_parameter_is_in_the_key(mesh, monkeypatch):
    base = randomized_key(mesh)
    other_mesh = structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 8, 8)
    changed = {
        "kernel": kle_cache_key(
            GaussianKernel(c=2.0), mesh, num_eigenpairs=RANK
        ),
        "mesh": randomized_key(other_mesh),
        "rank": randomized_key(mesh, num_eigenpairs=RANK + 1),
        "rule": randomized_key(mesh, rule="three_point"),
    }
    # The same solve on the dense route must not share the key either.
    monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", mesh.num_triangles)
    changed["route"] = randomized_key(mesh)
    assert all(key != base for key in changed.values()), changed
    assert len(set(changed.values())) == len(changed)


def test_keys_keep_their_layout(mesh, monkeypatch):
    """Existing cache entries stay addressable: the key hashes kernel,
    mesh, rank, rule and route, plus the default sketch on the randomized
    route, in this order."""

    def expected(*parts):
        digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
        return f"kle_{digest[:24]}_m{RANK}"

    common = (
        f"kernel={KERNEL!r}",
        f"mesh={mesh_fingerprint(mesh)}",
        f"m={RANK}",
        "rule=centroid",
    )
    assert randomized_key(mesh) == expected(
        *common, "method=randomized", "rand=o8_q2_s0"
    )
    monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", mesh.num_triangles)
    assert randomized_key(mesh) == expected(*common, "method=dense")


#: One changed value per parameter that ``solve_kle`` folds into its key.
CHANGED_PARAMETERS = [
    ("num_eigenpairs", RANK + 1),
    ("rule", "three_point"),
]


@pytest.mark.parametrize(
    "parameter, value",
    CHANGED_PARAMETERS,
    ids=[parameter for parameter, _ in CHANGED_PARAMETERS],
)
def test_changed_parameter_misses_the_cache(mesh, cache, parameter, value):
    """Each parameter of the solve reaches the key through ``solve_kle``
    itself: a second solve with one of them changed must not hit."""
    base = dict(num_eigenpairs=RANK, cache=cache)
    solve_kle(KERNEL, mesh, **base)
    solve_kle(KERNEL, mesh, **{**base, parameter: value})
    assert cache.stats.hits == 0
    assert cache.stats.stores == 2


def test_poisoned_entry_quarantines_and_rebuilds_bitwise(mesh, cache):
    cold = solve_kle(KERNEL, mesh, num_eigenpairs=RANK, cache=cache)
    key = randomized_key(mesh)
    path = cache.path_for(key)
    assert os.path.exists(path)
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0xFF  # flip a payload bit: checksum must catch it
    open(path, "wb").write(bytes(blob))

    rebuilt = solve_kle(KERNEL, mesh, num_eigenpairs=RANK, cache=cache)
    assert cache.stats.corruptions == 1
    assert os.path.exists(path + ".corrupt")
    np.testing.assert_array_equal(cold.eigenvalues, rebuilt.eigenvalues)
    np.testing.assert_array_equal(cold.d_vectors, rebuilt.d_vectors)
    # The rebuilt entry is healthy: next solve is a warm bitwise hit.
    hits_before = cache.stats.hits
    warm = solve_kle(KERNEL, mesh, num_eigenpairs=RANK, cache=cache)
    assert cache.stats.hits == hits_before + 1
    np.testing.assert_array_equal(cold.d_vectors, warm.d_vectors)
