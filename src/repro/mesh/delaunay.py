"""Incremental (Bowyer–Watson) Delaunay triangulation.

This is the engine underneath the Ruppert-style refinement in
:mod:`repro.mesh.refine`; together they replace Shewchuk's *Triangle* [24]
for meshing the die area.

The triangulation is maintained *domain-restricted*: construction starts
from an explicit triangulation of a convex region (typically the die
rectangle split into two triangles) and points are only ever inserted inside
or on the boundary of that region.  This sidesteps the numerical hazards of
the classical far-away super-triangle while exactly matching what die
meshing needs.

Data structures: triangles live in a dict keyed by id, and a directed-edge
map ``(u, v) -> triangle id`` provides O(1) adjacency (the neighbour across
directed edge ``(u, v)`` is the triangle owning ``(v, u)``).  Point location
uses the standard orientation walk with a last-triangle hint.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mesh.geometry import (
    in_circumcircle,
    orientation_sign,
)
from repro.mesh.mesh import TriangleMesh

Edge = Tuple[int, int]


class IncrementalDelaunay:
    """A mutable Delaunay triangulation of a convex region.

    Parameters
    ----------
    vertices:
        Initial vertex coordinates, ``(nv, 2)``.
    triangles:
        Initial triangles as an ``(nt, 3)`` index array; they must tile a
        convex region and be mutually consistent (each interior edge shared
        by exactly two triangles).  Orientation is normalized to CCW.
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        self._points: List[Tuple[float, float]] = [
            (float(x), float(y)) for x, y in vertices
        ]
        self._triangles: Dict[int, Tuple[int, int, int]] = {}
        self._edge_map: Dict[Edge, int] = {}
        self._next_id = 0
        self._hint: Optional[int] = None
        for tri in triangles:
            i, j, k = int(tri[0]), int(tri[1]), int(tri[2])
            if orientation_sign(self._points[i], self._points[j], self._points[k]) < 0:
                j, k = k, j
            self._add_triangle(i, j, k)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def from_rectangle(
        cls, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> "IncrementalDelaunay":
        """Two-triangle triangulation of an axis-aligned rectangle."""
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("rectangle must have positive width and height")
        vertices = np.array(
            [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float
        )
        triangles = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
        return cls(vertices, triangles)

    # ------------------------------------------------------------------
    # Internal structure maintenance.
    # ------------------------------------------------------------------
    def _add_triangle(self, i: int, j: int, k: int) -> int:
        tri_id = self._next_id
        self._next_id += 1
        self._triangles[tri_id] = (i, j, k)
        self._edge_map[(i, j)] = tri_id
        self._edge_map[(j, k)] = tri_id
        self._edge_map[(k, i)] = tri_id
        return tri_id

    def _remove_triangle(self, tri_id: int) -> None:
        i, j, k = self._triangles.pop(tri_id)
        for edge in ((i, j), (j, k), (k, i)):
            if self._edge_map.get(edge) == tri_id:
                del self._edge_map[edge]

    def _neighbor_across(self, u: int, v: int) -> Optional[int]:
        """Triangle on the other side of directed edge ``(u, v)``."""
        return self._edge_map.get((v, u))

    # ------------------------------------------------------------------
    # Point location.
    # ------------------------------------------------------------------
    def locate(self, point: Tuple[float, float]) -> int:
        """Return the id of a triangle containing ``point``.

        Uses the orientation walk from the last-insertion hint; falls back
        to a linear scan when the walk exceeds its step budget (only happens
        for adversarial geometries).  Raises :class:`ValueError` when the
        point is outside the triangulated region.
        """
        if not self._triangles:
            raise ValueError("empty triangulation")
        tri_id = self._hint
        if tri_id is None or tri_id not in self._triangles:
            tri_id = next(iter(self._triangles))
        max_steps = 4 * len(self._triangles) + 16
        for _ in range(max_steps):
            i, j, k = self._triangles[tri_id]
            moved = False
            for u, v in ((i, j), (j, k), (k, i)):
                if orientation_sign(self._points[u], self._points[v], point) < 0:
                    nxt = self._neighbor_across(u, v)
                    if nxt is None:
                        raise ValueError(
                            f"point {point} is outside the triangulated region"
                        )
                    tri_id = nxt
                    moved = True
                    break
            if not moved:
                return tri_id
        # Walk cycled (can happen with near-degenerate geometry): scan.
        for tid, (i, j, k) in self._triangles.items():
            if all(
                orientation_sign(self._points[u], self._points[v], point) >= 0
                for u, v in ((i, j), (j, k), (k, i))
            ):
                return tid
        raise ValueError(f"point {point} is outside the triangulated region")

    # ------------------------------------------------------------------
    # Bowyer–Watson insertion.
    # ------------------------------------------------------------------
    def insert(self, point: Tuple[float, float], *, merge_tol: float = 1e-12) -> int:
        """Insert ``point``, restoring the Delaunay property; return its index.

        A point within ``merge_tol`` (scaled by local edge length) of an
        existing vertex of its containing triangle is merged into that
        vertex (its index is returned and the mesh is unchanged).
        """
        point = (float(point[0]), float(point[1]))
        start = self.locate(point)

        # Duplicate-vertex guard against the containing triangle's corners.
        i, j, k = self._triangles[start]
        for vid in (i, j, k):
            vx, vy = self._points[vid]
            if math.hypot(point[0] - vx, point[1] - vy) <= merge_tol:
                return vid

        # Grow the cavity: BFS over triangles whose circumcircle contains p.
        bad = {start}
        stack = [start]
        while stack:
            tid = stack.pop()
            ti, tj, tk = self._triangles[tid]
            for u, v in ((ti, tj), (tj, tk), (tk, ti)):
                nbr = self._neighbor_across(u, v)
                if nbr is None or nbr in bad:
                    continue
                ni, nj, nk = self._triangles[nbr]
                if in_circumcircle(
                    self._points[ni], self._points[nj], self._points[nk], point
                ):
                    bad.add(nbr)
                    stack.append(nbr)

        # Cavity boundary: directed edges of bad triangles whose outside
        # neighbour is not bad.  These stay CCW around the cavity.
        boundary: List[Edge] = []
        for tid in bad:
            ti, tj, tk = self._triangles[tid]
            for u, v in ((ti, tj), (tj, tk), (tk, ti)):
                nbr = self._neighbor_across(u, v)
                if nbr is None or nbr not in bad:
                    boundary.append((u, v))

        for tid in bad:
            self._remove_triangle(tid)

        new_index = len(self._points)
        self._points.append(point)
        last_tri = None
        for u, v in boundary:
            # A point exactly on a cavity-boundary segment (e.g. the midpoint
            # of a die-boundary edge during Ruppert splitting) would create a
            # degenerate triangle; skipping it leaves a correct fan.
            if orientation_sign(self._points[u], self._points[v], point) <= 0:
                continue
            last_tri = self._add_triangle(u, v, new_index)
        if last_tri is not None:
            self._hint = last_tri
        return new_index

    # ------------------------------------------------------------------
    # Queries / export.
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._points)

    @property
    def num_triangles(self) -> int:
        return len(self._triangles)

    def vertex(self, index: int) -> Tuple[float, float]:
        """Coordinates of vertex ``index``."""
        return self._points[index]

    @property
    def next_triangle_id(self) -> int:
        """The id the next new triangle gets; ids are assigned in order."""
        return self._next_id

    def triangle_vertices(self, tri_id: int) -> Tuple[int, int, int]:
        """CCW vertex indices of triangle ``tri_id``."""
        return self._triangles[tri_id]

    def boundary_edges(self) -> List[Edge]:
        """Directed edges with no neighbouring triangle (the region boundary)."""
        return [
            (u, v)
            for (u, v) in self._edge_map
            if (v, u) not in self._edge_map
        ]

    def to_mesh(self) -> TriangleMesh:
        """Snapshot the current triangulation as an immutable mesh."""
        vertices = np.array(self._points, dtype=float)
        triangles = np.array(
            [self._triangles[tid] for tid in sorted(self._triangles)],
            dtype=np.int64,
        )
        return TriangleMesh(vertices, triangles)


def delaunay_mesh(points: np.ndarray, *, margin: float = 0.0) -> TriangleMesh:
    """Delaunay triangulation of a point set inside its bounding rectangle.

    The bounding rectangle (optionally expanded by ``margin`` on each side)
    is triangulated first and the points are inserted incrementally, so the
    result covers the rectangle and includes its four corners as vertices.
    The Delaunay empty-circumcircle property holds for the full vertex set.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got {points.shape}")
    if len(points) == 0:
        raise ValueError("need at least one point")
    xmin, ymin = points.min(axis=0)
    xmax, ymax = points.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = margin if margin > 0.0 else 1e-3 * span
    tri = IncrementalDelaunay.from_rectangle(
        float(xmin - pad), float(ymin - pad), float(xmax + pad), float(ymax + pad)
    )
    for x, y in points:
        tri.insert((float(x), float(y)))
    return tri.to_mesh()
