"""Warm artifact residency for the SSTA daemon.

The registry keeps every expensive, reusable artifact resident in
memory — loaded netlists, placements, KLE eigensolves, and the
per-(circuit, kernel, rank) :class:`~repro.timing.ssta.MonteCarloSSTA`
harnesses whose engines hold compiled timing programs and prepared
sample-generator factorizations.  A request only ever pays for an
artifact's first use; the load bench measures exactly this warm/cold
gap.

Failure containment: every build goes through :meth:`ArtifactRegistry`'s
warm path first (which may read the checksummed on-disk cache — corrupt
entries are quarantined as ``*.corrupt`` by the cache layer itself and
regenerated).  If the warm build *raises*, the artifact key is
quarantined in-registry and the build is retried once cold (no disk
cache, fresh construction).  Only a cold failure surfaces as
:class:`ArtifactBuildError`; either way the serving loop keeps running.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.circuit.benchmarks import load_circuit
from repro.circuit.netlist import Netlist
from repro.core.galerkin import kle_eigensolver, solve_kle
from repro.core.kle import KLEResult
from repro.mesh.mesh import TriangleMesh
from repro.mesh.structured import structured_rectangle_mesh
from repro.place.placer import Placement, place_netlist
from repro.service.faults import FaultInjector
from repro.service.request import ServiceConfig
from repro.timing import native
from repro.timing.ssta import MonteCarloSSTA
from repro.utils.artifact_cache import ArtifactCache, get_cache

#: Harness memo key: (circuit, kernel, truncation order).
HarnessKey = Tuple[str, str, Optional[int]]


class ArtifactBuildError(RuntimeError):
    """An artifact could not be built even on the cold fallback path."""


class ArtifactRegistry:
    """Thread-safe resident cache of the service's analysis artifacts.

    Concurrent requests for the *same* artifact build it exactly once
    (per-key build locks); requests for different artifacts build
    concurrently.  ``stats()`` exposes hit/miss counters, the in-registry
    quarantine list, and the resident-byte footprint of the compiled
    timing programs for eviction accounting.
    """

    def __init__(
        self,
        config: ServiceConfig,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.faults = faults if faults is not None else FaultInjector()
        self._lock = threading.Lock()
        self._build_locks: Dict[str, threading.Lock] = {}
        self._mesh: Optional[TriangleMesh] = None
        self._netlists: Dict[str, Netlist] = {}
        self._placements: Dict[str, Placement] = {}
        self._kles: Dict[str, KLEResult] = {}
        self._harnesses: Dict[HarnessKey, MonteCarloSSTA] = {}
        self._quarantined: Dict[str, str] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Internal plumbing.
    # ------------------------------------------------------------------
    def _build_lock(self, key: str) -> threading.Lock:
        """Per-artifact build lock (created on first use)."""
        with self._lock:
            lock = self._build_locks.get(key)
            if lock is None:
                lock = threading.Lock()
                self._build_locks[key] = lock
            return lock

    def _count_hit(self) -> None:
        with self._lock:
            self._hits += 1

    def _count_miss(self) -> None:
        with self._lock:
            self._misses += 1

    def _quarantine(self, key: str, reason: str) -> None:
        with self._lock:
            self._quarantined[key] = reason

    def _kle_cache(self) -> Optional[ArtifactCache]:
        directory = self.config.cache_directory
        if directory is None:
            return None
        return get_cache("kle", directory)

    # ------------------------------------------------------------------
    # Artifact accessors (memoized, warm-with-cold-fallback).
    # ------------------------------------------------------------------
    def mesh(self) -> TriangleMesh:
        """The shared structured die mesh all KLE solves discretize."""
        with self._build_lock("mesh"):
            if self._mesh is None:
                x0, y0, x1, y1 = self.config.die_bounds
                nx, ny = self.config.mesh_divisions
                self._mesh = structured_rectangle_mesh(x0, y0, x1, y1, nx, ny)
            return self._mesh

    def netlist(self, circuit: str) -> Netlist:
        """Load (and keep resident) a benchmark circuit by name."""
        with self._build_lock(f"netlist:{circuit}"):
            cached = self._netlists.get(circuit)
            if cached is not None:
                self._count_hit()
                return cached
            self._count_miss()
            self.faults.fire("netlist")
            netlist = load_circuit(circuit)
            with self._lock:
                self._netlists[circuit] = netlist
            return netlist

    def placement(self, circuit: str) -> Placement:
        """Deterministic placement of ``circuit`` (resident; seed-fixed)."""
        netlist = self.netlist(circuit)
        with self._build_lock(f"placement:{circuit}"):
            cached = self._placements.get(circuit)
            if cached is not None:
                self._count_hit()
                return cached
            self._count_miss()
            self.faults.fire("placement")
            placed = place_netlist(
                netlist,
                self.config.die_bounds,
                seed=self.config.placement_seed,
            )
            with self._lock:
                self._placements[circuit] = placed
            return placed

    def kle(self, kernel_name: str) -> KLEResult:
        """Resident KLE eigensolve for one configured kernel.

        The warm path reads/writes the checksummed on-disk cache when the
        config enables one (a poisoned entry is quarantined as
        ``*.corrupt`` by the cache layer and regenerated transparently);
        a warm-path *exception* quarantines the artifact in-registry and
        falls back to a cold in-memory solve.
        """
        kernel = self.config.kernels[kernel_name]
        key = f"kle:{kernel_name}"
        with self._build_lock(key):
            cached = self._kles.get(kernel_name)
            if cached is not None:
                self._count_hit()
                return cached
            self._count_miss()
            mesh = self.mesh()
            try:
                self.faults.fire("kle")
                solved = solve_kle(
                    kernel,
                    mesh,
                    num_eigenpairs=self.config.num_eigenpairs,
                    cache=self._kle_cache(),
                )
            except Exception as exc:
                # Graceful degradation is the service contract: any warm
                # build failure (injected or real) is quarantined and
                # retried cold exactly once; a cold failure re-raises as
                # ArtifactBuildError below.
                self._quarantine(key, repr(exc))
                try:
                    self.faults.fire("kle")
                    solved = solve_kle(
                        kernel,
                        mesh,
                        num_eigenpairs=self.config.num_eigenpairs,
                        cache=None,
                    )
                except Exception as cold_exc:
                    # Terminal: surface a typed error; the caller fails
                    # only the affected request(s), never the queue.
                    raise ArtifactBuildError(
                        f"KLE build failed warm ({exc!r}) and cold "
                        f"({cold_exc!r}) for kernel {kernel_name!r}"
                    ) from cold_exc
            with self._lock:
                self._kles[kernel_name] = solved
            return solved

    def harness(
        self, circuit: str, kernel_name: str, r: Optional[int]
    ) -> MonteCarloSSTA:
        """Resident per-(circuit, kernel, rank) Monte-Carlo harness.

        The harness owns the STA engine (compiled program), both sample
        generators, and their prepared factorizations — everything a
        sweep needs beyond the samples themselves.  Build failures follow
        the quarantine-then-cold-fallback contract of :meth:`kle`.
        """
        key: HarnessKey = (circuit, kernel_name, r)
        lock_name = f"harness:{circuit}:{kernel_name}:{r}"
        with self._build_lock(lock_name):
            cached = self._harnesses.get(key)
            if cached is not None:
                self._count_hit()
                return cached
            self._count_miss()
            netlist = self.netlist(circuit)
            placed = self.placement(circuit)
            kle = self.kle(kernel_name)
            kernel = self.config.kernels[kernel_name]
            try:
                self.faults.fire("engine")
                built = MonteCarloSSTA(
                    netlist,
                    placed,
                    kernel,
                    kle,
                    r=r,
                    engine=self.config.engine,
                )
            except Exception as exc:
                # Same containment as `kle`: quarantine the warm failure,
                # retry cold once, surface a typed error otherwise.
                self._quarantine(lock_name, repr(exc))
                try:
                    self.faults.fire("engine")
                    built = MonteCarloSSTA(
                        netlist,
                        placed,
                        kernel,
                        kle,
                        r=r,
                        engine=self.config.engine,
                    )
                except Exception as cold_exc:
                    raise ArtifactBuildError(
                        f"harness build failed warm ({exc!r}) and cold "
                        f"({cold_exc!r}) for {key}"
                    ) from cold_exc
            if self.config.kernel_threads is not None:
                # Pin the native kernel's sample-lane worker count for
                # every run through this resident engine; bitwise output
                # is independent of the pin, so residency stays pure.
                built.engine.native_threads = int(self.config.kernel_threads)
            with self._lock:
                self._harnesses[key] = built
            return built

    def warm_up(
        self, circuit: str, kernel_name: str = "gaussian", r: Optional[int] = None
    ) -> MonteCarloSSTA:
        """Eagerly build everything a request for this key will touch.

        Beyond :meth:`harness`, this forces the compiled timing program
        and the sample generators' location preparation, so the first
        real request runs entirely warm.
        """
        harness = self.harness(circuit, kernel_name, r)
        if self.config.engine == "compiled":
            harness.engine.program  # noqa: B018 — builds and caches
        harness.kle_generator.prepare(harness.gate_locations)
        harness.reference_generator.prepare(harness.gate_locations)
        return harness

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def quarantined(self) -> Dict[str, str]:
        """Artifact keys whose warm build failed, with the failure repr."""
        with self._lock:
            return dict(self._quarantined)

    def kernel_threads(self) -> int:
        """Native worker count resident engines sweep with.

        Resolves ``config.kernel_threads`` (falling back to the
        ``REPRO_NATIVE_THREADS`` environment contract); a malformed
        environment degrades to 1 here so monitoring never raises.
        """
        try:
            return native.resolve_thread_count(self.config.kernel_threads)
        except ValueError:
            return 1

    def resident_bytes(self) -> int:
        """Bytes held by the resident analysis artifacts.

        Counts each compiled timing program's arenas plus the per-thread
        native scratch its sweeps allocate at the configured kernel
        thread count, and the eigenpair arrays of every resident KLE
        solve — the high-water footprint a saturated request leaves
        resident.  The KLE term is what the randomized-solver path keeps
        bounded on fine meshes (O(n·m) instead of the dense path's O(n²)
        transient).
        """
        threads = self.kernel_threads()
        with self._lock:
            harnesses = list(self._harnesses.values())
            kles = list(self._kles.values())
        total = 0
        for harness in harnesses:
            program = harness.engine._program
            if program is not None:
                total += program.resident_bytes()
                total += program.native_scratch_bytes(threads)
        for kle in kles:
            total += int(kle.eigenvalues.nbytes + kle.d_vectors.nbytes)
        return total

    def stats(self) -> Dict[str, object]:
        """Snapshot of registry counters for monitoring/bench output."""
        with self._lock:
            counts: List[Tuple[str, int]] = [
                ("netlists", len(self._netlists)),
                ("placements", len(self._placements)),
                ("kles", len(self._kles)),
                ("harnesses", len(self._harnesses)),
            ]
            hits, misses = self._hits, self._misses
            quarantined = dict(self._quarantined)
        return {
            "hits": hits,
            "misses": misses,
            "resident": dict(counts),
            "resident_bytes": self.resident_bytes(),
            "kernel_threads": self.kernel_threads(),
            "kle_method": kle_eigensolver(self.mesh().num_triangles),
            "quarantined": quarantined,
        }
