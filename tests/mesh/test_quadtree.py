"""Tests for the quadtree point-location index."""

import numpy as np
import pytest

from repro.experiments.common import get_context
from repro.mesh.geometry import point_in_triangle
from repro.mesh.locate import TriangleLocator
from repro.mesh.quadtree import QuadtreeLocator
from repro.mesh.refine import refine_rectangle
from repro.mesh.structured import structured_rectangle_mesh

DIE = (-1.0, -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def meshes():
    return {
        "structured": structured_rectangle_mesh(*DIE, 8, 8),
        "refined": refine_rectangle(*DIE, max_area=0.03),
        "paper": get_context().mesh,
    }


@pytest.mark.parametrize("kind", ["structured", "refined"])
def test_located_triangle_contains_point(meshes, kind):
    mesh = meshes[kind]
    locator = QuadtreeLocator(mesh)
    rng = np.random.default_rng(0)
    for p in rng.uniform(-0.999, 0.999, (200, 2)):
        tri = locator.locate(p)
        a, b, c = mesh.triangle_points(tri)
        assert point_in_triangle(tuple(p), tuple(a), tuple(b), tuple(c))


@pytest.mark.parametrize("kind", ["structured", "refined", "paper"])
def test_agrees_with_grid_locator(meshes, kind):
    """Grid and quadtree indexes are drop-in interchangeable."""
    mesh = meshes[kind]
    grid = TriangleLocator(mesh)
    tree = QuadtreeLocator(mesh)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.99, 0.99, (150, 2))
    grid_result = grid.locate_many(pts)
    tree_result = tree.locate_many(pts)
    # Both return *a* containing triangle; on shared edges they may differ,
    # but each must contain the point.
    for p, gi, ti in zip(pts, grid_result, tree_result):
        if gi != ti:
            a, b, c = mesh.triangle_points(ti)
            assert point_in_triangle(tuple(p), tuple(a), tuple(b), tuple(c))
            a, b, c = mesh.triangle_points(gi)
            assert point_in_triangle(tuple(p), tuple(a), tuple(b), tuple(c))


def test_outside_point_raises(meshes):
    locator = QuadtreeLocator(meshes["structured"])
    with pytest.raises(ValueError, match="outside"):
        locator.locate((5.0, 0.0))


def test_tree_actually_subdivides(meshes):
    locator = QuadtreeLocator(meshes["refined"], max_triangles_per_leaf=4)
    assert locator.depth() >= 2
    assert locator.leaf_count() > 4


def test_depth_budget_respected(meshes):
    locator = QuadtreeLocator(
        meshes["refined"], max_triangles_per_leaf=1, max_depth=3
    )
    assert locator.depth() <= 3


def test_corners_and_edges(meshes):
    mesh = meshes["structured"]
    locator = QuadtreeLocator(mesh)
    for corner in [(-1, -1), (1, -1), (1, 1), (-1, 1), (0.0, 0.0)]:
        tri = locator.locate(corner)
        a, b, c = mesh.triangle_points(tri)
        assert point_in_triangle(corner, tuple(a), tuple(b), tuple(c))


def test_validation(meshes):
    with pytest.raises(ValueError, match="max_triangles_per_leaf"):
        QuadtreeLocator(meshes["structured"], max_triangles_per_leaf=0)
    with pytest.raises(ValueError, match="max_depth"):
        QuadtreeLocator(meshes["structured"], max_depth=0)
    locator = QuadtreeLocator(meshes["structured"])
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        locator.locate_many(np.zeros(3))
