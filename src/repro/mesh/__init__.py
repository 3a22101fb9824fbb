"""Triangular meshing of the die area (replaces Shewchuk's Triangle [24]).

Public surface:

- :class:`TriangleMesh` — immutable triangulation with the areas/centroids
  the Galerkin method consumes.
- :func:`refine_rectangle` / :func:`paper_mesh` — Ruppert-style quality
  meshing with the paper's knobs (min angle 28°, max area 0.1 % of die).
- :func:`structured_rectangle_mesh` — uniform alternative mesher.
- :class:`TriangleLocator` — gate-to-triangle point location (Alg. 2).
"""

from repro.mesh.mesh import MeshQuality, TriangleMesh, mesh_h_for_target_triangles
from repro.mesh.delaunay import IncrementalDelaunay, delaunay_mesh
from repro.mesh.refine import (
    RefinementError,
    gate_density_area_limit,
    paper_mesh,
    refine_rectangle,
    refine_to_triangle_count,
)
from repro.mesh.structured import (
    structured_mesh_with_triangle_count,
    structured_rectangle_mesh,
)
from repro.mesh.locate import TriangleLocator
from repro.mesh.io import (
    load_mesh_npz,
    load_mesh_triangle_format,
    save_mesh_npz,
    save_mesh_triangle_format,
)

__all__ = [
    "MeshQuality",
    "TriangleMesh",
    "mesh_h_for_target_triangles",
    "IncrementalDelaunay",
    "delaunay_mesh",
    "RefinementError",
    "gate_density_area_limit",
    "paper_mesh",
    "refine_rectangle",
    "refine_to_triangle_count",
    "structured_mesh_with_triangle_count",
    "structured_rectangle_mesh",
    "TriangleLocator",
    "load_mesh_npz",
    "load_mesh_triangle_format",
    "save_mesh_npz",
    "save_mesh_triangle_format",
]
