"""Ruppert-style Delaunay refinement for the die rectangle.

Replaces Shewchuk's *Triangle* [24] for the paper's meshing step: given the
die area and the two quality knobs the paper uses — a minimum interior angle
(28°) and a maximum triangle area (0.1 % of the die) — produce a conforming
quality triangulation.

Algorithm (Ruppert 1995, specialized to a convex rectangle):

1. Triangulate the rectangle (two triangles).
2. Split any *encroached* boundary subsegment (one whose diametral circle
   strictly contains another vertex) at its midpoint.
3. For any remaining *poor* triangle (min angle below the bound or area
   above the bound), insert its circumcenter — unless that circumcenter
   would encroach a boundary subsegment or fall outside the die, in which
   case the offending subsegments are split instead.
4. Repeat until no encroached segments and no poor triangles remain.

Because the rectangle is convex, every boundary subsegment is always an
edge of the Delaunay triangulation, so encroachment can be tested in O(1)
via the apex of the single adjacent triangle.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.mesh.delaunay import IncrementalDelaunay
from repro.mesh.geometry import (
    segment_encroached,
    triangle_area,
    triangle_circumcenter,
    triangle_min_angle,
)
from repro.mesh.mesh import TriangleMesh

#: Size-field callback: ``f(x, y)`` -> maximum triangle area near (x, y).
AreaLimitFn = Callable[[float, float], float]

Segment = Tuple[int, int]


class RefinementError(RuntimeError):
    """Raised when refinement cannot satisfy the quality bounds in budget."""


class _Refiner:
    """One refinement run; see :func:`refine_rectangle` for the public API."""

    def __init__(
        self,
        xmin: float,
        ymin: float,
        xmax: float,
        ymax: float,
        min_angle_degrees: float,
        max_area: Optional[float],
        max_vertices: int,
        area_limit_fn: Optional[AreaLimitFn] = None,
    ):
        if min_angle_degrees >= 33.0:
            raise ValueError(
                "min_angle_degrees above ~33 is not guaranteed to terminate; "
                f"got {min_angle_degrees}"
            )
        self.xmin, self.ymin, self.xmax, self.ymax = xmin, ymin, xmax, ymax
        self.min_angle = math.radians(min_angle_degrees)
        self.max_area = max_area
        self.area_limit_fn = area_limit_fn
        self.max_vertices = max_vertices
        self.tri = IncrementalDelaunay.from_rectangle(xmin, ymin, xmax, ymax)
        # Boundary subsegments as *undirected* vertex-index pairs.
        self.segments: Set[Segment] = {(0, 1), (1, 2), (2, 3), (0, 3)}
        # Segments shorter than this are never split — a termination guard
        # against encroachment cascades in corners.
        domain_area = (xmax - xmin) * (ymax - ymin)
        floor_area = max_area
        if area_limit_fn is not None:
            # Sample the size field to bound the smallest requested area.
            samples = [
                float(area_limit_fn(
                    xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin)
                ))
                for fx in (0.05, 0.25, 0.5, 0.75, 0.95)
                for fy in (0.05, 0.25, 0.5, 0.75, 0.95)
            ]
            smallest = min(samples)
            if smallest <= 0.0:
                raise ValueError("area_limit_fn must be strictly positive")
            floor_area = smallest if floor_area is None else min(
                floor_area, smallest
            )
        if floor_area is not None:
            self.min_segment_length = math.sqrt(floor_area) / 16.0
        else:
            self.min_segment_length = math.sqrt(domain_area) / 4096.0
        # Work list of the quality loop (see :meth:`_next_poor`): poor
        # triangle ids in ascending order, the first id not yet tested and
        # a triangle to re-examine before the others.  A triangle whose
        # only remedy was splitting a floor-length segment is abandoned,
        # not retried forever.
        self._poor: List[int] = []
        self._tested = 0
        self._retry: Optional[int] = None
        self._abandoned: Set[int] = set()

    # -- geometry helpers ------------------------------------------------
    def _pt(self, index: int) -> Tuple[float, float]:
        return self.tri.vertex(index)

    def _segment_length(self, seg: Segment) -> float:
        a = self._pt(seg[0])
        b = self._pt(seg[1])
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def _inside_domain(self, p: Tuple[float, float]) -> bool:
        return (
            self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax
        )

    # -- encroachment ----------------------------------------------------
    def _segment_is_encroached(self, seg: Segment) -> bool:
        """O(1) apex test: a hull edge's diametral circle contains a vertex
        iff it contains the apex of its one adjacent triangle."""
        a, b = seg
        tid = self.tri._edge_map.get((a, b))
        if tid is None:
            tid = self.tri._edge_map.get((b, a))
        if tid is None:
            # Should not happen on a convex domain; treat as encroached so
            # the split restores conformity.
            return True
        i, j, k = self.tri.triangle_vertices(tid)
        apex = next(v for v in (i, j, k) if v != a and v != b)
        return segment_encroached(self._pt(a), self._pt(b), self._pt(apex))

    def _split_segment(self, seg: Segment) -> bool:
        """Insert the segment midpoint; returns False if the segment is at
        the minimum-length floor and was left alone."""
        if self._segment_length(seg) < self.min_segment_length:
            return False
        a, b = seg
        pa, pb = self._pt(a), self._pt(b)
        midpoint = (0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1]))
        new_index = self.tri.insert(midpoint)
        if new_index in (a, b):
            return False
        self.segments.discard(seg)
        self.segments.add(self._norm_segment(a, new_index))
        self.segments.add(self._norm_segment(new_index, b))
        if self.tri.num_vertices > self.max_vertices:
            raise RefinementError(
                f"refinement exceeded max_vertices={self.max_vertices}"
            )
        return True

    @staticmethod
    def _norm_segment(u: int, v: int) -> Segment:
        return (u, v) if u < v else (v, u)

    def _fix_encroachments(self) -> bool:
        """Split encroached subsegments until none is; True if any split."""
        split = False
        changed = True
        while changed:
            changed = False
            for seg in list(self.segments):
                if seg in self.segments and self._segment_is_encroached(seg):
                    if self._split_segment(seg):
                        changed = split = True
        return split

    # -- quality loop ------------------------------------------------------
    def _triangle_is_poor(self, tid: int) -> bool:
        i, j, k = self.tri.triangle_vertices(tid)
        a, b, c = self._pt(i), self._pt(j), self._pt(k)
        area = triangle_area(a, b, c)
        if self.max_area is not None and area > self.max_area:
            return True
        if self.area_limit_fn is not None:
            cx = (a[0] + b[0] + c[0]) / 3.0
            cy = (a[1] + b[1] + c[1]) / 3.0
            if area > float(self.area_limit_fn(cx, cy)):
                return True
        return triangle_min_angle(a, b, c) < self.min_angle

    def _next_poor(self) -> Optional[int]:
        """The next live, poor, non-abandoned triangle to refine, or None.

        A triangle's vertices never change and ids are never reused, so
        each triangle's quality is tested once, by the first call that
        sees its id.  Poor ids wait in ascending order and the highest
        goes first, except that a pending retry goes before all of them.
        A triangle that survives its turn keeps its place; dead and
        abandoned ids are dropped when they reach the top.
        """
        live = self.tri._triangles
        for tid in range(self._tested, self.tri.next_triangle_id):
            if tid in live and self._triangle_is_poor(tid):
                self._poor.append(tid)
        self._tested = self.tri.next_triangle_id
        if self._retry is not None:
            tid, self._retry = self._retry, None
            return tid
        while self._poor:
            tid = self._poor[-1]
            if tid in live and tid not in self._abandoned:
                return tid
            self._poor.pop()
        return None

    def run(self) -> TriangleMesh:
        self._fix_encroachments()
        # Counts the triangles refined, not work-list entries.
        guard = 0
        guard_limit = 64 * self.max_vertices + 10_000
        while True:
            tid = self._next_poor()
            if tid is None:
                return self.tri.to_mesh()
            guard += 1
            if guard > guard_limit:
                raise RefinementError("refinement failed to converge")
            i, j, k = self.tri.triangle_vertices(tid)
            a, b, c = self._pt(i), self._pt(j), self._pt(k)
            try:
                center = triangle_circumcenter(a, b, c)
            except ValueError:
                self._abandoned.add(tid)
                continue

            encroached = [
                seg
                for seg in self.segments
                if segment_encroached(self._pt(seg[0]), self._pt(seg[1]), center)
            ]
            if encroached or not self._inside_domain(center):
                split_any = False
                for seg in encroached:
                    if seg in self.segments and self._split_segment(seg):
                        split_any = True
                if not split_any and not self._inside_domain(center):
                    # Circumcenter outside but no splittable segment: fall
                    # back to the longest-edge midpoint, which is inside.
                    sides = [
                        ((a, b), math.dist(a, b)),
                        ((b, c), math.dist(b, c)),
                        ((c, a), math.dist(c, a)),
                    ]
                    (pa, pb), length = max(sides, key=lambda t: t[1])
                    if length < 2.0 * self.min_segment_length:
                        self._abandoned.add(tid)
                        continue
                    midpoint = (0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1]))
                    self.tri.insert(midpoint)
                elif not split_any:
                    self._abandoned.add(tid)
                    continue
                split_more = self._fix_encroachments()
                if not split_more and tid in self.tri._triangles:
                    # Re-examine it next; further splits give it back its
                    # place among the other poor triangles instead.
                    self._retry = tid
            else:
                self.tri.insert(center)
                if self.tri.num_vertices > self.max_vertices:
                    raise RefinementError(
                        f"refinement exceeded max_vertices={self.max_vertices}"
                    )
                self._fix_encroachments()


def refine_rectangle(
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
    *,
    min_angle_degrees: float = 28.0,
    max_area: Optional[float] = None,
    max_vertices: int = 100_000,
    area_limit_fn: Optional[AreaLimitFn] = None,
) -> TriangleMesh:
    """Quality-triangulate an axis-aligned rectangle.

    Parameters mirror Triangle's ``-q`` (minimum angle) and ``-a`` (maximum
    area) switches, with the paper's defaults: ``min_angle_degrees=28``; pass
    ``max_area = 0.001 * die_area`` to reproduce the paper's mesh density
    (n ≈ 1546 triangles on the [-1,1]² die).

    ``area_limit_fn(x, y) -> float`` optionally grades the mesh with a
    spatially varying area bound (a *size field*, Triangle's ``-u``): each
    triangle must satisfy the limit evaluated at its centroid.  Use
    :func:`gate_density_area_limit` to build a size field from a placement
    so the mesh spends triangles where the gates are.

    Returns a conforming :class:`TriangleMesh` whose every triangle
    satisfies all requested bounds.  Raises :class:`RefinementError` when
    the mesh would exceed ``max_vertices`` vertices, or after
    ``64 * max_vertices + 10_000`` triangles refined without converging.
    """
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("rectangle must have positive width and height")
    if max_area is not None and max_area <= 0.0:
        raise ValueError(f"max_area must be positive, got {max_area}")
    refiner = _Refiner(
        xmin, ymin, xmax, ymax, min_angle_degrees, max_area, max_vertices,
        area_limit_fn=area_limit_fn,
    )
    return refiner.run()


def gate_density_area_limit(
    gate_locations: np.ndarray,
    bounds: "tuple[float, float, float, float]",
    *,
    dense_area: float,
    sparse_area: float,
    grid_cells: int = 16,
) -> AreaLimitFn:
    """Build a size field concentrating triangles where gates cluster.

    Counts gates in a ``grid_cells × grid_cells`` histogram and maps cell
    density linearly onto ``[dense_area, sparse_area]``: the densest cells
    get the ``dense_area`` bound, empty cells the ``sparse_area`` bound.
    The returned callable suits :func:`refine_rectangle`'s
    ``area_limit_fn`` — an accuracy/cost knob for the KLE: parameter values
    are read per triangle, so resolution only matters where gates sit.
    """
    if dense_area <= 0.0 or sparse_area <= 0.0:
        raise ValueError("area bounds must be positive")
    if dense_area > sparse_area:
        raise ValueError("dense_area must not exceed sparse_area")
    locations = np.asarray(gate_locations, dtype=float).reshape(-1, 2)
    xmin, ymin, xmax, ymax = bounds
    histogram, _x_edges, _y_edges = np.histogram2d(
        locations[:, 0], locations[:, 1], bins=grid_cells,
        range=[[xmin, xmax], [ymin, ymax]],
    )
    occupied = histogram[histogram > 0]
    # Normalize by a high quantile of the occupied cells (not the single
    # peak cell) so typical gate clusters — not just the densest hotspot —
    # receive the fine bound.
    reference = float(np.quantile(occupied, 0.75)) if occupied.size else 0.0

    def area_limit(x: float, y: float) -> float:
        if reference <= 0.0:
            return sparse_area
        cx = min(int((x - xmin) / (xmax - xmin) * grid_cells), grid_cells - 1)
        cy = min(int((y - ymin) / (ymax - ymin) * grid_cells), grid_cells - 1)
        density = min(histogram[max(cx, 0), max(cy, 0)] / reference, 1.0)
        return sparse_area + (dense_area - sparse_area) * float(density)

    return area_limit


def paper_mesh(
    chip_half_side: float = 1.0,
    *,
    min_angle_degrees: float = 28.0,
    area_fraction: float = 0.001,
) -> TriangleMesh:
    """The paper's experiment mesh: die ``[-s, s]²``, min angle 28°, max
    triangle area ``area_fraction`` (0.1 %) of the die area (§5.2)."""
    s = float(chip_half_side)
    if s <= 0.0:
        raise ValueError(f"chip_half_side must be positive, got {s}")
    die_area = (2.0 * s) ** 2
    return refine_rectangle(
        -s, -s, s, s,
        min_angle_degrees=min_angle_degrees,
        max_area=area_fraction * die_area,
    )


def refine_to_triangle_count(
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
    target_triangles: int,
    *,
    min_angle_degrees: float = 28.0,
    tolerance: float = 0.15,
    max_iterations: int = 12,
) -> TriangleMesh:
    """Search ``max_area`` so the refined mesh has ≈ ``target_triangles``.

    Used by the Fig. 6(b) sweep, which varies the number of triangles ``n``
    at fixed truncation ``r``.  The returned mesh's triangle count is within
    ``tolerance`` (relative) of the target, or the closest achieved within
    ``max_iterations`` bisection steps.
    """
    if target_triangles < 2:
        raise ValueError(f"target_triangles must be >= 2, got {target_triangles}")
    domain_area = (xmax - xmin) * (ymax - ymin)
    # Quality meshes land near ~1.2-1.6 triangles per max_area quantum; start
    # from the uniform-area estimate and bisect in log space.
    max_area = 1.3 * domain_area / target_triangles
    best: Optional[TriangleMesh] = None
    best_gap = math.inf
    lo, hi = None, None
    for _ in range(max_iterations):
        mesh = refine_rectangle(
            xmin, ymin, xmax, ymax,
            min_angle_degrees=min_angle_degrees,
            max_area=max_area,
        )
        count = mesh.num_triangles
        gap = abs(count - target_triangles) / target_triangles
        if gap < best_gap:
            best, best_gap = mesh, gap
        if gap <= tolerance:
            return mesh
        if count > target_triangles:
            lo = max_area  # too many triangles -> allow larger areas
            max_area = max_area * 2.0 if hi is None else math.sqrt(max_area * hi)
        else:
            hi = max_area  # too few triangles -> force smaller areas
            max_area = max_area / 2.0 if lo is None else math.sqrt(max_area * lo)
    assert best is not None
    return best
