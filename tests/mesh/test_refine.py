"""Tests for Ruppert-style quality refinement (the Triangle [24] stand-in)."""

import hashlib

import numpy as np
import pytest

from repro.mesh.refine import (
    RefinementError,
    _Refiner,
    gate_density_area_limit,
    paper_mesh,
    refine_rectangle,
    refine_to_triangle_count,
)


@pytest.fixture(scope="module")
def coarse_quality_mesh():
    return refine_rectangle(-1, -1, 1, 1, min_angle_degrees=28.0, max_area=0.05)


def test_min_angle_bound_satisfied(coarse_quality_mesh):
    assert coarse_quality_mesh.min_angle_degrees() >= 28.0 - 1e-9


def test_max_area_bound_satisfied(coarse_quality_mesh):
    assert float(coarse_quality_mesh.areas.max()) <= 0.05 + 1e-12


def test_covers_die_exactly(coarse_quality_mesh):
    assert coarse_quality_mesh.total_area() == pytest.approx(4.0, abs=1e-9)


def test_conforming(coarse_quality_mesh):
    assert coarse_quality_mesh.is_conforming()


def test_boundary_edges_on_die_border(coarse_quality_mesh):
    verts = coarse_quality_mesh.vertices
    for u, v in coarse_quality_mesh.boundary_edges():
        for vid in (u, v):
            x, y = verts[vid]
            on_border = (
                abs(abs(x) - 1.0) < 1e-12 or abs(abs(y) - 1.0) < 1e-12
            )
            assert on_border


def test_angle_only_refinement():
    mesh = refine_rectangle(0, 0, 1, 1, min_angle_degrees=25.0)
    assert mesh.min_angle_degrees() >= 25.0 - 1e-9
    assert mesh.total_area() == pytest.approx(1.0)


def test_aspect_rectangle():
    mesh = refine_rectangle(0, 0, 4, 1, min_angle_degrees=28.0, max_area=0.2)
    assert mesh.total_area() == pytest.approx(4.0)
    assert mesh.min_angle_degrees() >= 28.0 - 1e-9


def test_paper_mesh_reproduces_paper_scale():
    """28° / 0.1 %-area knobs give a mesh in the paper's n = 1546 class."""
    mesh = paper_mesh()
    assert 1200 <= mesh.num_triangles <= 2000
    assert mesh.min_angle_degrees() >= 28.0 - 1e-9
    assert float(mesh.areas.max()) <= 0.004 + 1e-12
    assert mesh.total_area() == pytest.approx(4.0, abs=1e-9)


def test_smaller_max_area_more_triangles():
    coarse = refine_rectangle(0, 0, 1, 1, max_area=0.05)
    fine = refine_rectangle(0, 0, 1, 1, max_area=0.01)
    assert fine.num_triangles > coarse.num_triangles


def test_refine_to_triangle_count_hits_targets():
    for target in (100, 400):
        mesh = refine_to_triangle_count(-1, -1, 1, 1, target)
        assert abs(mesh.num_triangles - target) / target <= 0.25


def test_parameter_validation():
    with pytest.raises(ValueError, match="positive width"):
        refine_rectangle(1, 0, 0, 1)
    with pytest.raises(ValueError, match="max_area must be positive"):
        refine_rectangle(0, 0, 1, 1, max_area=-0.1)
    with pytest.raises(ValueError, match="not guaranteed to terminate"):
        refine_rectangle(0, 0, 1, 1, min_angle_degrees=34.0)
    with pytest.raises(ValueError, match="target_triangles"):
        refine_to_triangle_count(0, 0, 1, 1, 1)


def test_vertex_budget_enforced():
    with pytest.raises(RefinementError, match="max_vertices"):
        refine_rectangle(0, 0, 1, 1, max_area=1e-5, max_vertices=100)


def test_refinement_is_deterministic():
    m1 = refine_rectangle(0, 0, 1, 1, max_area=0.03)
    m2 = refine_rectangle(0, 0, 1, 1, max_area=0.03)
    assert m1.num_triangles == m2.num_triangles
    assert (m1.vertices == m2.vertices).all()


# ---------------------------------------------------------------------------
# Density-adaptive refinement (size fields).
# ---------------------------------------------------------------------------
def test_area_limit_fn_respected():
    from repro.mesh.refine import refine_rectangle

    def limit(x, _y):
        return 0.01 if x < 0 else 0.2

    mesh = refine_rectangle(-1, -1, 1, 1, area_limit_fn=limit)
    for area, centroid in zip(mesh.areas, mesh.centroids):
        assert area <= (0.01 if centroid[0] < 0 else 0.2) + 1e-12


def test_gate_density_size_field_concentrates_triangles():
    import numpy as np

    from repro.mesh.refine import gate_density_area_limit, refine_rectangle

    rng = np.random.default_rng(0)
    gates = np.concatenate(
        [rng.uniform(-1, 0, (400, 2)), rng.uniform(-1, 1, (40, 2))]
    )
    fn = gate_density_area_limit(
        gates, (-1, -1, 1, 1), dense_area=0.005, sparse_area=0.08
    )
    mesh = refine_rectangle(-1, -1, 1, 1, area_limit_fn=fn)
    dense = int(np.sum(mesh.centroids[:, 0] < 0))
    sparse = mesh.num_triangles - dense
    assert dense > 2.5 * sparse
    assert mesh.min_angle_degrees() >= 28.0 - 1e-9
    assert mesh.total_area() == pytest.approx(4.0, abs=1e-9)


def test_gate_density_size_field_validation():
    import numpy as np

    from repro.mesh.refine import gate_density_area_limit

    gates = np.zeros((3, 2))
    with pytest.raises(ValueError, match="positive"):
        gate_density_area_limit(
            gates, (-1, -1, 1, 1), dense_area=0.0, sparse_area=0.1
        )
    with pytest.raises(ValueError, match="must not exceed"):
        gate_density_area_limit(
            gates, (-1, -1, 1, 1), dense_area=0.2, sparse_area=0.1
        )


def test_empty_gate_set_gives_uniform_sparse_mesh():
    import numpy as np

    from repro.mesh.refine import gate_density_area_limit, refine_rectangle

    fn = gate_density_area_limit(
        np.zeros((0, 2)), (-1, -1, 1, 1), dense_area=0.01, sparse_area=0.1
    )
    mesh = refine_rectangle(-1, -1, 1, 1, area_limit_fn=fn)
    assert float(mesh.areas.max()) <= 0.1 + 1e-12


def test_nonpositive_area_limit_rejected():
    from repro.mesh.refine import refine_rectangle

    with pytest.raises(ValueError, match="strictly positive"):
        refine_rectangle(-1, -1, 1, 1, area_limit_fn=lambda x, y: 0.0)


# ---------------------------------------------------------------------------
# Property sweeps of the refinement knobs (hypothesis).
# ---------------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.floats(min_value=15.0, max_value=30.0),
    st.floats(min_value=0.02, max_value=0.5),
)
@settings(max_examples=12, deadline=None)
def test_refinement_bounds_hold_property(min_angle, max_area):
    """For any legal knob combination: both bounds hold, the die is
    covered exactly, and the mesh conforms."""
    mesh = refine_rectangle(
        0, 0, 1, 1, min_angle_degrees=min_angle, max_area=max_area
    )
    assert mesh.min_angle_degrees() >= min_angle - 1e-9
    assert float(mesh.areas.max()) <= max_area + 1e-12
    assert mesh.total_area() == pytest.approx(1.0, abs=1e-9)
    assert mesh.is_conforming()


@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.3, max_value=3.0),
)
@settings(max_examples=10, deadline=None)
def test_refinement_rectangle_shapes_property(width, height):
    """Arbitrary aspect ratios refine correctly."""
    mesh = refine_rectangle(0, 0, width, height, max_area=0.1)
    assert mesh.total_area() == pytest.approx(width * height, rel=1e-9)
    assert mesh.min_angle_degrees() >= 28.0 - 1e-9


# ---------------------------------------------------------------------------
# Pinned meshes and the work the quality loop does.
# ---------------------------------------------------------------------------
def _mesh_digest(mesh):
    digest = hashlib.sha256(np.ascontiguousarray(mesh.vertices).tobytes())
    digest.update(np.ascontiguousarray(mesh.triangles, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _graded_mesh():
    rng = np.random.default_rng(0)
    gates = np.concatenate(
        [rng.uniform(-1, 0, (400, 2)), rng.uniform(-1, 1, (40, 2))]
    )
    fn = gate_density_area_limit(
        gates, (-1, -1, 1, 1), dense_area=0.005, sparse_area=0.08
    )
    return refine_rectangle(-1, -1, 1, 1, area_limit_fn=fn)


PAPER_MESH_DIGEST = (
    "6824d7f639ec8bfef21b340b2db1c642a6461aca981a8111eb10d0a509d7f7db"
)

#: sha256 of ``(vertices, triangles)`` of meshes built by the earlier
#: refiner, which re-queued and re-tested every triangle after each
#: insertion.  Testing each triangle once must not change a bit.  The
#: ``abandoned_band`` size field is fine between the 5 × 5 points that set
#: the segment-length floor, so some triangles there are abandoned.
PINNED_MESHES = {
    "paper": (paper_mesh, PAPER_MESH_DIGEST),
    "fig6b_60": (
        lambda: refine_to_triangle_count(-1, -1, 1, 1, 60),
        "9fe30a52dcf79d1dedf86b83d2d18e3c2a53fac1f025ac5079c026a4331e34dc",
    ),
    "fig6b_200": (
        lambda: refine_to_triangle_count(-1, -1, 1, 1, 200),
        "8cbc571410c16b0cc53799c62603b8cef811cf35f171cb36dbf045022ee6b0c9",
    ),
    "fig6b_800": (
        lambda: refine_to_triangle_count(-1, -1, 1, 1, 800),
        "d24a63c9d501fde22a87f785a0e8d0510a589e78f7150e2db1c76d82b4766771",
    ),
    "fig6b_1546": (
        lambda: refine_to_triangle_count(-1, -1, 1, 1, 1546),
        PAPER_MESH_DIGEST,
    ),
    "gate_density": (
        _graded_mesh,
        "f5cff2f47606b74b790054a8e4d2530745fdc9bec2b195e8cb81701ab4852899",
    ),
    "rectangle_4x1": (
        lambda: refine_rectangle(0, 0, 4, 1, max_area=0.2),
        "028a46043338198d5e80f12e8cd1559e2bc9af93053910a4434ec39d57c27f15",
    ),
    "angle_only": (
        lambda: refine_rectangle(0, 0, 3, 0.5, min_angle_degrees=25.0),
        "49ab7399569cb6ec351944a7428d8749070080ce08fce31510335de2216dd1f1",
    ),
    "step_size_field": (
        lambda: refine_rectangle(
            -1, -1, 1, 1, area_limit_fn=lambda x, _y: 0.01 if x < 0 else 0.2
        ),
        "56b789a1d944a1e2551ffc7fc7689a416b375a83e394782dd859f589ef174292",
    ),
    "micron_die_30deg": (
        lambda: refine_rectangle(
            0.0, 0.0, 3000.0, 2000.0, min_angle_degrees=30.0, max_area=6e4
        ),
        "c21778d3fb0dda6a3fd1ad87a8aae57f8c16013dbed576edd8695d65536d6d50",
    ),
    "abandoned_band": (
        lambda: refine_rectangle(
            0, 0, 0.3, 1, min_angle_degrees=20.0,
            area_limit_fn=lambda _x, y: 3e-5 if 0.07 < y < 0.2 else 0.05,
        ),
        "362fd1bbc0c5581242defe182db6e1dae594969704d5bb8df10bab297168f25c",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_MESHES))
def test_mesh_is_bitwise_pinned(name):
    build, digest = PINNED_MESHES[name]
    assert _mesh_digest(build()) == digest


def test_paper_mesh_tests_each_triangle_once(monkeypatch):
    """Quality is tested once per triangle, when the loop first sees it
    (the re-queueing refiner made 513,373 tests for this mesh)."""
    tested = []
    is_poor = _Refiner._triangle_is_poor

    def counting(self, tid):
        tested.append(tid)
        return is_poor(self, tid)

    monkeypatch.setattr(_Refiner, "_triangle_is_poor", counting)
    mesh = paper_mesh()
    assert len(tested) == len(set(tested))
    assert len(tested) <= 4 * mesh.num_triangles


def test_guard_counts_refinement_steps():
    """The convergence guard counts triangles refined, not stale queue
    entries: a 2,000-vertex budget builds the 851-vertex paper mesh."""
    mesh = refine_rectangle(-1, -1, 1, 1, max_area=0.004, max_vertices=2000)
    assert mesh.num_vertices == 851
    assert _mesh_digest(mesh) == PAPER_MESH_DIGEST
