"""Level-hierarchy construction and validation tests."""

import pytest

from repro.core import galerkin
from repro.core.galerkin import solve_kle
from repro.mesh.structured import structured_rectangle_mesh
from repro.mlmc import (
    KLERankHierarchy,
    LevelModel,
    MeshKLEHierarchy,
    SurrogateKLEHierarchy,
)

DIE = (-1.0, -1.0, 1.0, 1.0)


class TestLevelModel:
    def test_rank_bounds_enforced(self, gaussian_kle):
        with pytest.raises(ValueError, match="outside"):
            LevelModel(
                kles={"L": gaussian_kle},
                ranks={"L": gaussian_kle.num_eigenpairs + 1},
                label="bad",
                parameter=1.0,
            )

    def test_timer_validated(self, gaussian_kle):
        with pytest.raises(ValueError, match="timer"):
            LevelModel(
                kles={"L": gaussian_kle},
                ranks={"L": 5},
                label="bad",
                parameter=5.0,
                timer="quadratic",
            )

    def test_total_rank(self, gaussian_kle):
        model = LevelModel(
            kles={"L": gaussian_kle, "W": gaussian_kle},
            ranks={"L": 5, "W": 7},
            label="ok",
            parameter=7.0,
        )
        assert model.total_rank() == 12
        assert model.parameter_names == ("L", "W")


class TestKLERankHierarchy:
    def test_broadcasts_to_all_parameters(self, gaussian_kle):
        hierarchy = KLERankHierarchy(gaussian_kle, [5, 10, 20])
        assert hierarchy.num_levels == 3
        assert hierarchy.ranks == (5, 10, 20)
        models = hierarchy.models()
        assert models[0].parameter_names == ("L", "W", "Vt", "tox")
        assert all(models[1].ranks[name] == 10 for name in models[1].ranks)
        assert hierarchy.describe() == "rank-5 -> rank-10 -> rank-20"

    def test_requires_strictly_increasing_ranks(self, gaussian_kle):
        with pytest.raises(ValueError, match="strictly increasing"):
            KLERankHierarchy(gaussian_kle, [10, 10])
        with pytest.raises(ValueError, match="at least one"):
            KLERankHierarchy(gaussian_kle, [])

    def test_degenerate_single_level(self, gaussian_kle):
        hierarchy = KLERankHierarchy(gaussian_kle, [25])
        assert hierarchy.num_levels == 1


class TestMeshKLEHierarchy:
    def test_two_mesh_ladder(self, gaussian_kernel):
        coarse = structured_rectangle_mesh(*DIE, 4, 4)
        fine = structured_rectangle_mesh(*DIE, 8, 8)
        hierarchy = MeshKLEHierarchy(
            gaussian_kernel, [coarse, fine], rank=8, num_eigenpairs=16
        )
        assert hierarchy.num_levels == 2
        models = hierarchy.models()
        assert models[0].parameter == coarse.num_triangles
        assert models[1].parameter == fine.num_triangles
        assert all(r <= 8 for r in models[0].ranks.values())

    def test_rejects_unordered_meshes(self, gaussian_kernel):
        coarse = structured_rectangle_mesh(*DIE, 4, 4)
        fine = structured_rectangle_mesh(*DIE, 8, 8)
        with pytest.raises(ValueError, match="coarse-to-fine"):
            MeshKLEHierarchy(gaussian_kernel, [fine, coarse], rank=8)

    def test_auto_solver_selection_switches_at_threshold(
        self, gaussian_kernel, monkeypatch
    ):
        coarse = structured_rectangle_mesh(*DIE, 4, 4)  # 32 triangles
        fine = structured_rectangle_mesh(*DIE, 8, 8)  # 128 triangles
        # The default switch keeps small ladders fully dense.
        dense_ladder = MeshKLEHierarchy(
            gaussian_kernel, [coarse, fine], rank=8, num_eigenpairs=16
        )
        assert dense_ladder.solver_methods == ("dense", "dense")
        monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", 64)
        hierarchy = MeshKLEHierarchy(
            gaussian_kernel, [coarse, fine], rank=8, num_eigenpairs=16
        )
        assert hierarchy.solver_methods == ("dense", "randomized")

    def test_each_level_is_bitwise_solve_kle(self, gaussian_kernel, monkeypatch):
        # The ladder adds no solver choice of its own: each level's
        # eigenpairs are the exact arrays solve_kle returns for its mesh,
        # on either side of the size switch.
        monkeypatch.setattr(galerkin, "DENSE_KLE_MAX_TRIANGLES", 64)
        meshes = [
            structured_rectangle_mesh(*DIE, 4, 4),  # 32 triangles: dense
            structured_rectangle_mesh(*DIE, 8, 8),  # 128: randomized
        ]
        hierarchy = MeshKLEHierarchy(
            gaussian_kernel, meshes, rank=8, num_eigenpairs=16
        )
        for mesh, model in zip(meshes, hierarchy.models()):
            expected = solve_kle(gaussian_kernel, mesh, num_eigenpairs=16)
            for kle in model.kles.values():
                assert (kle.eigenvalues == expected.eigenvalues).all()
                assert (kle.d_vectors == expected.d_vectors).all()


class TestSurrogateKLEHierarchy:
    def test_two_levels_with_linear_base(self, gaussian_kle):
        hierarchy = SurrogateKLEHierarchy(gaussian_kle, r=20)
        models = hierarchy.models()
        assert [m.timer for m in models] == ["linear", "sta"]
        assert models[0].ranks == models[1].ranks
        assert hierarchy.r == 20
