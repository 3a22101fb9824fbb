"""Tests for grid-indexed point location (Algorithm 2's triangle lookup)."""

import numpy as np
import pytest

from repro.mesh.geometry import point_in_triangle
from repro.mesh.locate import TriangleLocator
from repro.mesh.refine import paper_mesh
from repro.mesh.structured import structured_rectangle_mesh


@pytest.fixture(scope="module")
def mesh():
    return structured_rectangle_mesh(-1, -1, 1, 1, 8, 8)


@pytest.fixture(scope="module")
def locator(mesh):
    return TriangleLocator(mesh)


def test_located_triangle_contains_point(mesh, locator):
    rng = np.random.default_rng(0)
    for p in rng.uniform(-0.999, 0.999, (200, 2)):
        tri = locator.locate(p)
        a, b, c = mesh.triangle_points(tri)
        assert point_in_triangle(tuple(p), tuple(a), tuple(b), tuple(c))


def test_paper_mesh_located_triangle_contains_point():
    # The paper's §5.2 mesh, where Alg. 2 locates gates: the batch and the
    # scalar lookup each return a triangle that contains the point.
    paper = paper_mesh()
    index = TriangleLocator(paper)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.99, 0.99, (150, 2))
    for p, batch_tri in zip(pts, index.locate_many(pts)):
        for tri in (batch_tri, index.locate(p)):
            a, b, c = paper.triangle_points(tri)
            assert point_in_triangle(tuple(p), tuple(a), tuple(b), tuple(c))


def test_locate_many_matches_scalar(mesh, locator):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.9, 0.9, (50, 2))
    batch = locator.locate_many(pts)
    for i, p in enumerate(pts):
        assert batch[i] == locator.locate(p)


def test_locate_on_vertex_and_edge(locator, mesh):
    # A grid vertex and an edge midpoint are inside some triangle.
    tri = locator.locate((0.0, 0.0))
    a, b, c = mesh.triangle_points(tri)
    assert point_in_triangle((0.0, 0.0), tuple(a), tuple(b), tuple(c))


def test_locate_corners(locator, mesh):
    for corner in [(-1, -1), (1, -1), (1, 1), (-1, 1)]:
        tri = locator.locate(corner)
        a, b, c = mesh.triangle_points(tri)
        assert point_in_triangle(corner, tuple(a), tuple(b), tuple(c))


def test_outside_point_raises(locator):
    with pytest.raises(ValueError, match="outside"):
        locator.locate((3.0, 0.0))


def test_locate_many_validates_shape(locator):
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        locator.locate_many(np.zeros(4))


def test_deterministic_on_shared_edges(mesh):
    """Points on shared edges resolve to the same triangle every time."""
    loc1 = TriangleLocator(mesh)
    loc2 = TriangleLocator(mesh)
    p = (0.25, 0.25)  # a grid diagonal point
    assert loc1.locate(p) == loc2.locate(p)


def test_custom_cells_per_axis(mesh):
    coarse = TriangleLocator(mesh, cells_per_axis=2)
    fine = TriangleLocator(mesh, cells_per_axis=32)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.9, 0.9, (40, 2))
    assert np.array_equal(coarse.locate_many(pts), fine.locate_many(pts))


def test_invalid_cells_per_axis(mesh):
    with pytest.raises(ValueError, match=">= 1"):
        TriangleLocator(mesh, cells_per_axis=0)


def test_works_on_refined_mesh():
    from repro.mesh.refine import refine_rectangle

    mesh = refine_rectangle(-1, -1, 1, 1, max_area=0.05)
    locator = TriangleLocator(mesh)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.99, 0.99, (100, 2))
    indices = locator.locate_many(pts)
    for p, tri in zip(pts, indices):
        a, b, c = mesh.triangle_points(tri)
        assert point_in_triangle(tuple(p), tuple(a), tuple(b), tuple(c))
