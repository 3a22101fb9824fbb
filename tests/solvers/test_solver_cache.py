"""Cache-key discipline of the randomized eigensolve path.

A randomized solve is a pure function of (kernel, mesh, rank, rule,
oversampling, power iterations, seed) — so the disk cache must hit
bitwise on an identical tuple, miss on *any* changed coordinate, keep
the deterministic methods' keys byte-stable, and survive poisoned
entries by quarantine + rebuild (same contract as
``tests/utils/test_artifact_cache.py``).
"""

import os

import numpy as np
import pytest

from repro.core.galerkin import kle_cache_key, solve_kle
from repro.core.kernels import GaussianKernel
from repro.mesh.structured import structured_rectangle_mesh
from repro.utils.artifact_cache import ArtifactCache

KERNEL = GaussianKernel(c=1.4)
RANK = 10


@pytest.fixture(scope="module")
def mesh():
    return structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 7, 7)


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(str(tmp_path), name="kle-test")


def randomized_key(mesh, **overrides):
    params = dict(
        num_eigenpairs=RANK, method="randomized",
        oversampling=8, power_iterations=2, solver_seed=0,
    )
    params.update(overrides)
    return kle_cache_key(KERNEL, mesh, **params)


def test_same_parameters_hit_bitwise(mesh, cache):
    cold = solve_kle(
        KERNEL, mesh, num_eigenpairs=RANK, method="randomized", cache=cache
    )
    assert cache.stats.stores == 1
    warm = solve_kle(
        KERNEL, mesh, num_eigenpairs=RANK, method="randomized", cache=cache
    )
    assert cache.stats.hits == 1
    np.testing.assert_array_equal(cold.eigenvalues, warm.eigenvalues)
    np.testing.assert_array_equal(cold.d_vectors, warm.d_vectors)


def test_every_randomized_parameter_is_in_the_key(mesh):
    base = randomized_key(mesh)
    other_mesh = structured_rectangle_mesh(-1.0, -1.0, 1.0, 1.0, 8, 8)
    changed = {
        "kernel": kle_cache_key(
            GaussianKernel(c=2.0), mesh, num_eigenpairs=RANK,
            method="randomized", oversampling=8, power_iterations=2,
            solver_seed=0,
        ),
        "mesh": randomized_key(other_mesh),
        "rank": randomized_key(mesh, num_eigenpairs=RANK + 1),
        "oversampling": randomized_key(mesh, oversampling=9),
        "power_iterations": randomized_key(mesh, power_iterations=3),
        "seed": randomized_key(mesh, solver_seed=1),
        "method": kle_cache_key(KERNEL, mesh, num_eigenpairs=RANK),
    }
    assert all(key != base for key in changed.values()), changed
    assert len(set(changed.values())) == len(changed)


#: One changed value per parameter that ``solve_kle`` folds into its key.
CHANGED_PARAMETERS = [
    ("solver_seed", 1),
    ("oversampling", 9),
    ("power_iterations", 3),
    ("num_eigenpairs", RANK + 1),
    ("rule", "three_point"),
    ("method", "dense"),
]


@pytest.mark.parametrize(
    "parameter, value",
    CHANGED_PARAMETERS,
    ids=[parameter for parameter, _ in CHANGED_PARAMETERS],
)
def test_changed_parameter_misses_the_cache(mesh, cache, parameter, value):
    """Each parameter of the solve reaches the key through ``solve_kle``
    itself: a second solve with one of them changed must not hit."""
    base = dict(num_eigenpairs=RANK, method="randomized", cache=cache)
    solve_kle(KERNEL, mesh, **base)
    solve_kle(KERNEL, mesh, **{**base, parameter: value})
    assert cache.stats.hits == 0
    assert cache.stats.stores == 2


def test_deterministic_method_keys_ignore_solver_parameters(mesh):
    # Pre-existing dense/arpack entries must stay addressable: the new
    # arguments fold into the key only for method="randomized".
    plain = kle_cache_key(KERNEL, mesh, num_eigenpairs=RANK, method="dense")
    with_args = kle_cache_key(
        KERNEL, mesh, num_eigenpairs=RANK, method="dense",
        oversampling=31, power_iterations=7, solver_seed=99,
    )
    assert plain == with_args


def test_poisoned_entry_quarantines_and_rebuilds_bitwise(mesh, cache):
    cold = solve_kle(
        KERNEL, mesh, num_eigenpairs=RANK, method="randomized", cache=cache
    )
    key = randomized_key(mesh)
    path = cache.path_for(key)
    assert os.path.exists(path)
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0xFF  # flip a payload bit: checksum must catch it
    open(path, "wb").write(bytes(blob))

    rebuilt = solve_kle(
        KERNEL, mesh, num_eigenpairs=RANK, method="randomized", cache=cache
    )
    assert cache.stats.corruptions == 1
    assert os.path.exists(path + ".corrupt")
    np.testing.assert_array_equal(cold.eigenvalues, rebuilt.eigenvalues)
    np.testing.assert_array_equal(cold.d_vectors, rebuilt.d_vectors)
    # The rebuilt entry is healthy: next solve is a warm bitwise hit.
    hits_before = cache.stats.hits
    warm = solve_kle(
        KERNEL, mesh, num_eigenpairs=RANK, method="randomized", cache=cache
    )
    assert cache.stats.hits == hits_before + 1
    np.testing.assert_array_equal(cold.d_vectors, warm.d_vectors)
