"""repro.solvers — the matrix-free eigensolver for the Galerkin KLE problem.

The paper's flow assembles the dense n × n Galerkin matrix and calls a
LAPACK eigensolver — O(n²) memory and O(n³) time, fine at the paper's
n = 1546 but a hard wall for fine MLMC mesh levels and large-die
scenarios.  This subsystem removes the wall for the part of the
spectrum KLE truncation actually uses:

- :mod:`repro.solvers.operator` — :class:`TiledKernelOperator`, the
  matrix-free application of the Galerkin matrix: it assembles
  kernel-Gram tiles on the fly (bounded working set, any mesh size).
- :mod:`repro.solvers.randomized` — a seeded Gaussian range-finder
  eigensolver (oversampling + power iterations → small projected
  eigenproblem) returning Φ-normalized leading eigenpairs plus a
  :class:`RandomizedSolveReport` of resident/peak-memory estimates.

The public entry point for the full flow stays
:func:`repro.core.galerkin.solve_kle`.  It picks the solver from the mesh
size (:func:`repro.core.galerkin.kle_eigensolver`): LAPACK at or below
:data:`repro.core.galerkin.DENSE_KLE_MAX_TRIANGLES` triangles, and above
it :func:`solve_randomized_kle` with the default sketch, disk-cached and
bitwise reproducible.  :func:`solve_randomized_kle` and
:func:`randomized_generalized_eigh` are the direct API, with the sketch
parameters as arguments.
"""

from repro.solvers.operator import (
    DEFAULT_TILE_BYTES,
    TiledKernelOperator,
    dense_solve_bytes,
)
from repro.solvers.randomized import (
    DEFAULT_OVERSAMPLING,
    DEFAULT_POWER_ITERATIONS,
    RandomizedSolveReport,
    randomized_generalized_eigh,
    solve_randomized_kle,
)

__all__ = [
    "TiledKernelOperator",
    "dense_solve_bytes",
    "DEFAULT_TILE_BYTES",
    "RandomizedSolveReport",
    "randomized_generalized_eigh",
    "solve_randomized_kle",
    "DEFAULT_OVERSAMPLING",
    "DEFAULT_POWER_ITERATIONS",
]
