"""Shared experiment context: kernels, meshes, KLEs, circuits, placements.

All figure/table drivers build on one :class:`ExperimentContext`, which
memoizes the expensive artifacts (the paper mesh, the 200-eigenpair KLE,
per-circuit placements) in memory and optionally on disk, so a bench run
that touches several experiments does each setup once.

Environment knobs (all optional):

- ``REPRO_SAMPLES``     — MC sample count for Table 1 / Fig. 6 style runs
  (default 2000; the paper used 100K on a C++ timer).
- ``REPRO_FULL``        — set to 1 to include the three largest circuits
  (16k–22k gates) whose reference Cholesky needs gigabytes.
- ``REPRO_CACHE_DIR``   — on-disk artifact cache directory for placements
  and KLE eigensolves (default: ``.repro_cache`` under the current
  directory; set empty to disable).

On-disk caching goes through :mod:`repro.utils.artifact_cache`: entries
are checksummed and written atomically, and any corrupt entry (truncated,
bit-flipped, version-skewed) is quarantined as ``*.corrupt`` and
regenerated transparently — a poisoned cache directory can slow a run
down, never break it.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuit.benchmarks import load_circuit
from repro.circuit.netlist import Netlist
from repro.core.galerkin import solve_kle
from repro.core.kernel_fit import paper_experiment_kernel
from repro.core.kernels import CovarianceKernel, GaussianKernel
from repro.core.kle import KLEResult
from repro.mesh.mesh import TriangleMesh
from repro.mesh.refine import paper_mesh
from repro.place.placer import Placement, place_netlist
from repro.utils.artifact_cache import ArtifactCache, get_cache

#: Application schema tag of cached placements; bump when the placer or
#: the stored layout changes meaning.
PLACEMENT_CACHE_SCHEMA = "placement-v1"

DIE_BOUNDS: Tuple[float, float, float, float] = (-1.0, -1.0, 1.0, 1.0)
PLACEMENT_SEED = 2008  # DATE 2008


def default_num_samples() -> int:
    """MC sample count, overridable via ``REPRO_SAMPLES``."""
    return int(os.environ.get("REPRO_SAMPLES", "2000"))


def default_engine() -> str:
    """STA engine mode for experiment drivers (``REPRO_ENGINE``).

    ``compiled`` (the default) or ``reference``; see
    :class:`repro.timing.sta.STAEngine`.
    """
    engine = os.environ.get("REPRO_ENGINE", "compiled")
    if engine not in ("compiled", "reference"):
        raise ValueError(
            f"REPRO_ENGINE must be 'compiled' or 'reference', got {engine!r}"
        )
    return engine


def full_mode() -> bool:
    """Whether the gigabyte-scale largest circuits are enabled."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


def cache_dir() -> Optional[str]:
    """On-disk cache directory, or ``None`` when disabled."""
    path = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return path or None


def placement_cache() -> Optional[ArtifactCache]:
    """The placement artifact cache, or ``None`` when caching is disabled."""
    directory = cache_dir()
    if directory is None:
        return None
    return get_cache("placements", directory)


def kle_cache() -> Optional[ArtifactCache]:
    """The KLE eigensolve artifact cache, or ``None`` when disabled."""
    directory = cache_dir()
    if directory is None:
        return None
    return get_cache("kle", directory)


class ExperimentContext:
    """Lazily built, memoized experimental artifacts (paper §5.1 setup).

    Every context KLE goes through :func:`repro.core.galerkin.solve_kle`,
    which picks the eigensolver from the mesh size.
    """

    def __init__(self) -> None:
        self._kernel: Optional[GaussianKernel] = None
        self._mesh: Optional[TriangleMesh] = None
        self._kle: Optional[KLEResult] = None
        self._circuits: Dict[str, Netlist] = {}
        self._placements: Dict[str, Placement] = {}

    @property
    def kernel(self) -> GaussianKernel:
        """The paper's Gaussian kernel (2-D best fit to the linear kernel)."""
        if self._kernel is None:
            self._kernel = paper_experiment_kernel()
        return self._kernel

    @property
    def mesh(self) -> TriangleMesh:
        """The paper's mesh: min angle 28°, max area 0.1 % of the die."""
        if self._mesh is None:
            self._mesh = paper_mesh()
        return self._mesh

    @property
    def kle(self) -> KLEResult:
        """200 leading eigenpairs of the experiment kernel on the paper mesh.

        Disk-cached (keyed on kernel fingerprint, mesh hash and eigenpair
        count), so only the first process ever pays for the eigensolve.
        """
        if self._kle is None:
            self._kle = solve_kle(
                self.kernel,
                self.mesh,
                num_eigenpairs=200,
                cache=kle_cache(),
            )
        return self._kle

    def circuit(self, name: str) -> Netlist:
        """Load (and memoize) a benchmark circuit by name."""
        if name not in self._circuits:
            self._circuits[name] = load_circuit(name)
        return self._circuits[name]

    def placement(self, name: str) -> Placement:
        """Placed circuit (disk-cached; placement of 20k gates takes a bit)."""
        if name not in self._placements:
            netlist = self.circuit(name)
            cached = _load_cached_placement(name, netlist)
            if cached is None:
                cached = place_netlist(
                    netlist, DIE_BOUNDS, seed=PLACEMENT_SEED
                )
                _store_cached_placement(name, cached)
            self._placements[name] = cached
        return self._placements[name]

    def kle_for_kernel(
        self,
        kernel: CovarianceKernel,
        mesh: Optional[TriangleMesh] = None,
        *,
        num_eigenpairs: int = 200,
    ) -> KLEResult:
        """Solve a KLE for a non-default kernel (disk-cached, not memoized
        in memory)."""
        return solve_kle(
            kernel,
            mesh or self.mesh,
            num_eigenpairs=num_eigenpairs,
            cache=kle_cache(),
        )


_GLOBAL_CONTEXT: Optional[ExperimentContext] = None


def get_context() -> ExperimentContext:
    """The process-wide shared context (used by the benches)."""
    global _GLOBAL_CONTEXT
    if _GLOBAL_CONTEXT is None:
        # Per-process memo: each process builds its own context (fed by
        # the shared *disk* caches), and no result ever reads this
        # binding back from another process.
        _GLOBAL_CONTEXT = ExperimentContext()
    return _GLOBAL_CONTEXT


def _placement_cache_key(name: str) -> str:
    return f"placement_{name}_seed{PLACEMENT_SEED}"


def _load_cached_placement(name: str, netlist: Netlist) -> Optional[Placement]:
    cache = placement_cache()
    if cache is None:
        return None
    # The cache layer absorbs every decode failure (``BadZipFile``,
    # ``zlib.error``, checksum/version skew, …) by quarantining the entry
    # and reporting a miss, so a poisoned cache dir never aborts a run.
    arrays = cache.load(
        _placement_cache_key(name),
        schema=PLACEMENT_CACHE_SCHEMA,
        required_keys=("gate_xy", "pad_names", "pad_xy"),
    )
    if arrays is None:
        return None
    gate_xy = arrays["gate_xy"]
    pad_names = [str(n) for n in arrays["pad_names"]]
    pad_xy = arrays["pad_xy"]
    if gate_xy.shape != (netlist.num_gates, 2):
        return None  # stale entry for a different netlist revision
    gate_positions = {
        gate.name: (float(gate_xy[i, 0]), float(gate_xy[i, 1]))
        for i, gate in enumerate(netlist.gates)
    }
    pad_positions = {
        pad: (float(xy[0]), float(xy[1]))
        for pad, xy in zip(pad_names, pad_xy)
    }
    return Placement(netlist, DIE_BOUNDS, gate_positions, pad_positions)


def _store_cached_placement(name: str, placement: Placement) -> None:
    cache = placement_cache()
    if cache is None:
        return
    gate_xy = placement.gate_locations()
    pad_names = np.array(list(placement.pad_positions), dtype=str)
    pad_xy = np.array(
        [placement.pad_positions[n] for n in placement.pad_positions],
        dtype=float,
    ).reshape(-1, 2)
    cache.store(
        _placement_cache_key(name),
        {"gate_xy": gate_xy, "pad_names": pad_names, "pad_xy": pad_xy},
        schema=PLACEMENT_CACHE_SCHEMA,
    )
