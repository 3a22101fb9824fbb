"""The paper's shape claims and the ablations, at the paper's own settings.

Each exhibit's qualitative claim (who wins, which way a trend goes, which
order of magnitude) is asserted on the experiment context that
``python -m repro.experiments`` draws (the fitted Gaussian kernel, the
1580-triangle paper mesh, 200 eigenpairs, seed-2008 placements).  The
ablations and extensions of DESIGN.md §6–7 follow.  Claims that other
modules already hold are not repeated here: see the exhibit index in
DESIGN.md §3.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core.analytic import separable_exponential_kle_2d
from repro.core.galerkin import assemble_galerkin_matrix, solve_kle
from repro.core.galerkin_linear import solve_kle_linear
from repro.core.kernels import (
    ExponentialKernel,
    GaussianKernel,
    MaternBesselKernel,
    SeparableExponentialKernel,
)
from repro.core.quadrature import get_rule
from repro.core.validation import kernel_reconstruction_report
from repro.experiments.common import get_context
from repro.experiments.fig1 import fig1b_field_outcomes
from repro.experiments.fig3 import fig3b_reconstruction_error
from repro.experiments.fig45 import fig4_eigenfunctions, fig5_eigenvalue_decay
from repro.experiments.fig6 import fig6a_error_vs_r, fig6b_error_vs_n
from repro.experiments.table1 import run_table1_row
from repro.field.grid_model import GridPCA, grid_model_from_kernel
from repro.field.sampling import KLESampleGenerator
from repro.mesh.locate import TriangleLocator
from repro.mesh.refine import (
    gate_density_area_limit,
    refine_rectangle,
    refine_to_triangle_count,
)
from repro.mesh.structured import (
    structured_mesh_with_triangle_count,
    structured_rectangle_mesh,
)
from repro.timing.block_ssta import BlockSSTA
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.ssta import MonteCarloSSTA
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)
#: The fitted experiment kernel (``paper_experiment_kernel().c``).
PAPER_GAUSSIAN = GaussianKernel(2.72394)
#: Monte-Carlo samples per flow for the Table 1 and Fig. 6 claims.
NUM_SAMPLES = 2000


@pytest.fixture(scope="module")
def context():
    return get_context()


# ----------------------------------------------------------------------
# Figures 1, 3, 4, 5 and 6.
# ----------------------------------------------------------------------
def test_fig1b_outcomes_are_smooth_locally_and_free_globally(context):
    data = fig1b_field_outcomes(
        context.kernel, resolution=32, num_outcomes=2, seed=2008
    )
    assert data.outcomes.shape == (2, 32, 32)
    for outcome in data.outcomes:
        neighbour = np.abs(np.diff(outcome, axis=0)).mean()
        opposite = np.abs(outcome[0, :] - outcome[-1, :]).mean()
        assert neighbour < 0.5 * opposite
    # The two outcomes are distinct draws of the same field.
    assert np.abs(data.outcomes[0] - data.outcomes[1]).max() > 0.5


def test_fig3b_grid_error_is_within_theorem_2_bound(context):
    """Within a triangle the rank-25 error is larger than at the basis'
    own resolution, but still the O(h) of Theorem 2."""
    report = fig3b_reconstruction_error(context.kle, r=25, evaluation="grid")
    assert report.max_abs_error < 1.5 * context.kle.mesh.max_side()


def test_fig4_eigenfunctions_are_fourier_like(context):
    data = fig4_eigenfunctions(context.kle, count=4, resolution=41)
    first, second = data.maps[0], data.maps[1]
    assert np.all(first > 0) or np.all(first < 0)
    assert np.any(second > 0) and np.any(second < 0)
    # The x/y-symmetric modes of the square die form a degenerate pair.
    np.testing.assert_allclose(
        data.eigenvalues[1], data.eigenvalues[2], rtol=0.05
    )


def test_fig5_decay_selects_about_25_variables(context):
    data = fig5_eigenvalue_decay(context.kle)
    assert 20 <= data.selected_r <= 30  # paper: r = 25 on n = 1546
    assert data.variance_captured >= 0.99
    assert data.eigenvalues[49] < 0.01 * data.eigenvalues[0]


def test_fig6a_sigma_error_falls_with_r():
    data = fig6a_error_vs_r(
        circuit="c1908", r_values=(2, 5, 10, 15, 25), num_samples=NUM_SAMPLES
    )
    errors = {p.swept_value: p.sigma_error_percent for p in data.points}
    assert errors[2] > 2.0 * errors[25]
    assert errors[5] > errors[25]
    assert errors[25] < 8.0  # the paper's few-percent band


def test_fig6b_sigma_error_falls_with_n():
    data = fig6b_error_vs_n(
        circuit="c1908",
        n_values=(60, 200, 800, 1546),
        r=25,
        num_samples=NUM_SAMPLES,
    )
    points = sorted(data.points, key=lambda p: p.swept_value)
    errors = [p.sigma_error_percent for p in points]
    assert errors[0] > errors[-1]
    assert errors[-1] < 8.0


@pytest.mark.parametrize("circuit", ["c880", "c1355", "c1908", "c3540"])
def test_table1_row_shape(circuit):
    row = run_table1_row(circuit, num_samples=NUM_SAMPLES, seed=0)
    assert row.e_mu_percent < 1.0  # paper: <= 0.109 %
    assert row.e_sigma_percent < 12.0  # paper: <= 5.65 % at N = 100K
    assert row.e_mu_percent < row.e_sigma_percent + 1.0
    assert row.r <= 30  # hundreds of gate variables -> about 25


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §6).
# ----------------------------------------------------------------------
def _covariance_error(kle, gates, r):
    """Gate-pair covariance implied by a rank-``r`` KLE minus the kernel."""
    tri = kle.locator.locate_many(gates)
    model = kle.covariance_on_triangles(r=min(r, kle.num_eigenpairs))
    return model[np.ix_(tri, tri)] - PAPER_GAUSSIAN.matrix(gates)


class TestQuadratureAblation:
    """Centroid vs 3-point vs 7-point rules in the Galerkin assembly."""

    RULES = ("centroid", "three_point", "seven_point")

    @pytest.fixture(scope="class")
    def entry_errors(self):
        """Max entry error of each rule on an 8x8 mesh.  The reference is
        the degree-5 rule on a 4x-refined mesh, summed over the 16 fine
        triangles of each coarse one: ``sum w_p w_q K(x_p, x_q)`` over
        every pair of fine quadrature nodes, evaluated here directly."""
        coarse = structured_rectangle_mesh(*DIE, 8, 8)
        fine = structured_rectangle_mesh(*DIE, 32, 32)
        seven = get_rule("seven_point")
        points, weights = seven.points_on_mesh(fine)
        # Group the nodes by coarse triangle: 16 x 7 consecutive nodes each.
        owner = TriangleLocator(coarse).locate_many(fine.centroids)
        order = np.argsort(owner, kind="stable")
        points = points.reshape(-1, seven.num_points, 2)[order].reshape(-1, 2)
        weights = weights.reshape(-1, seven.num_points)[order].ravel()
        n = coarse.num_triangles
        per = len(points) // n
        assert per * n == len(points)
        norms = np.einsum("ij,ij->i", points, points)
        reference = np.empty((n, n))
        rows = 4
        for i in range(0, n, rows):
            a, b = i * per, (i + rows) * per
            # exp(-c |x - y|^2), with |x - y|^2 = |x|^2 + |y|^2 - 2 x.y
            block = points[a:b] @ points.T
            block *= 2.0 * PAPER_GAUSSIAN.c
            block -= PAPER_GAUSSIAN.c * norms[a:b, None]
            block -= PAPER_GAUSSIAN.c * norms
            np.exp(block, out=block)
            block *= weights[a:b, None]
            block *= weights
            reference[i : i + rows] = block.reshape(rows, per, n, per).sum(
                axis=(1, 3)
            )
        return {
            rule: float(
                np.max(
                    np.abs(
                        assemble_galerkin_matrix(
                            PAPER_GAUSSIAN, coarse, rule=rule
                        )
                        - reference
                    )
                )
            )
            for rule in self.RULES
        }

    @pytest.mark.parametrize("rule", RULES)
    def test_every_rule_is_adequate(self, entry_errors, rule):
        assert entry_errors[rule] < 1e-3

    def test_higher_order_integrates_better(self, entry_errors):
        assert (
            entry_errors["seven_point"]
            < entry_errors["three_point"]
            < entry_errors["centroid"]
        )

    def test_eigenvalues_insensitive_at_paper_resolution(self):
        """Justifies the paper's cheapest rule at paper-like density."""
        mesh = structured_rectangle_mesh(*DIE, 24, 24)
        centroid = solve_kle(
            PAPER_GAUSSIAN, mesh, num_eigenpairs=25, rule="centroid"
        )
        three = solve_kle(
            PAPER_GAUSSIAN, mesh, num_eigenpairs=25, rule="three_point"
        )
        rel = np.abs(centroid.eigenvalues - three.eigenvalues)
        assert float(rel.max() / three.eigenvalues[0]) < 5e-3


class TestMesherAblation:
    """Ruppert mesh vs structured mesh at about 450 triangles."""

    TARGET_N = 450

    @pytest.fixture(scope="class")
    def meshes(self):
        return (
            refine_to_triangle_count(*DIE, self.TARGET_N),
            structured_mesh_with_triangle_count(*DIE, self.TARGET_N),
        )

    @pytest.fixture(scope="class")
    def kles(self, meshes):
        return tuple(
            solve_kle(PAPER_GAUSSIAN, mesh, num_eigenpairs=40)
            for mesh in meshes
        )

    def test_both_meshers_hit_the_budget(self, meshes):
        for mesh in meshes:
            gap = abs(mesh.num_triangles - self.TARGET_N)
            assert gap < 0.3 * self.TARGET_N

    def test_spectra_agree_across_meshers(self, kles):
        ruppert, structured = kles
        diff = np.abs(ruppert.eigenvalues[:25] - structured.eigenvalues[:25])
        assert float(diff.max() / ruppert.eigenvalues[0]) < 0.01

    def test_truncation_order_is_mesh_independent(self, kles):
        ruppert, structured = kles
        assert (
            abs(ruppert.select_truncation() - structured.select_truncation())
            <= 2
        )

    def test_reconstruction_errors_are_comparable(self, kles):
        ruppert, structured = kles
        err_r = kernel_reconstruction_report(ruppert, r=25).max_abs_error
        err_s = kernel_reconstruction_report(structured, r=25).max_abs_error
        assert err_r < 0.06 and err_s < 0.06
        assert abs(err_r - err_s) < 0.04


class TestGridPCAAblation:
    """KLE vs grid PCA at an equal budget of 25 random variables."""

    @pytest.fixture(scope="class")
    def gates(self):
        return np.random.default_rng(99).uniform(-0.98, 0.98, (120, 2))

    @pytest.fixture(scope="class")
    def kle(self):
        mesh = refine_to_triangle_count(*DIE, 800)
        return solve_kle(PAPER_GAUSSIAN, mesh, num_eigenpairs=100)

    def test_kle_covariance_error_is_order_h(self, kle, gates):
        error = float(np.max(np.abs(_covariance_error(kle, gates, 25))))
        assert error < 1.2 * kle.mesh.max_side()

    def test_kle_beats_the_25_cell_grid(self, kle, gates):
        """A 5x5 grid is the largest grid PCA spans fully with 25 RVs."""
        grid = grid_model_from_kernel(PAPER_GAUSSIAN, DIE, 5, 5)
        basis = GridPCA(grid).reconstruction_matrix(25)
        cells = grid.cell_of_points(gates)
        pca_cov = (basis @ basis.T)[np.ix_(cells, cells)]
        pca_error = np.max(np.abs(pca_cov - PAPER_GAUSSIAN.matrix(gates)))
        kle_error = np.max(np.abs(_covariance_error(kle, gates, 25)))
        assert kle_error < pca_error

    def test_kle_sampling_costs_a_small_factor_of_pca(self, kle, gates):
        pca = GridPCA(grid_model_from_kernel(PAPER_GAUSSIAN, DIE, 5, 5))
        generator = KLESampleGenerator({"L": kle}, r=25)
        generator.prepare(gates)

        def median_seconds(fn):
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                fn()
                seconds.append(time.perf_counter() - start)
            return statistics.median(seconds)

        pca_s = median_seconds(
            lambda: pca.sample_at_points(gates, 2000, 25, seed=0)
        )
        kle_s = median_seconds(lambda: generator.generate(gates, 2000, seed=0))
        assert kle_s < 50.0 * max(pca_s, 1e-4)


class TestKernelFamilyAblation:
    """One Galerkin flow for every kernel family on a 16x16 mesh."""

    FAMILIES = {
        "gaussian": PAPER_GAUSSIAN,
        "matern_eq6": MaternBesselKernel(b=2.5, s=2.5),
        "exponential": ExponentialKernel(1.63),
        "separable_l1": SeparableExponentialKernel(1.0),
    }

    @pytest.fixture(scope="class")
    def kles(self):
        mesh = structured_rectangle_mesh(*DIE, 16, 16)
        return {
            family: solve_kle(kernel, mesh, num_eigenpairs=200)
            for family, kernel in self.FAMILIES.items()
        }

    def test_smoothness_governs_the_variable_budget(self, kles):
        """Smoother kernels decay faster, so the Gaussian fit of Fig. 3a
        also needs the fewest random variables."""
        r = {family: kle.select_truncation() for family, kle in kles.items()}
        assert r["gaussian"] <= r["matern_eq6"] <= r["exponential"]
        assert r["gaussian"] < r["separable_l1"]

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_spectrum_is_valid(self, kles, family):
        eigenvalues = kles[family].eigenvalues
        assert eigenvalues[0] > 0.0
        assert np.all(np.diff(eigenvalues) <= 1e-12)
        # Mercer: the full trace is the die area for every family.
        full = solve_kle(self.FAMILIES[family], kles[family].mesh)
        assert full.eigenvalues.sum() == pytest.approx(4.0, rel=1e-6)


class TestBasisAblation:
    """Piecewise-constant vs piecewise-linear basis on the analytically
    solvable separable exponential kernel."""

    KERNEL = SeparableExponentialKernel(1.0)

    @pytest.fixture(scope="class")
    def truth(self):
        pairs = separable_exponential_kle_2d(1.0, 1.0, 6)
        return np.array([pair.eigenvalue for pair in pairs])

    @pytest.mark.parametrize("solver", [solve_kle, solve_kle_linear])
    def test_top_six_within_five_percent(self, truth, solver):
        mesh = structured_rectangle_mesh(*DIE, 10, 10)
        kle = solver(self.KERNEL, mesh, num_eigenpairs=6)
        assert np.max(np.abs(kle.eigenvalues[:6] - truth) / truth) < 0.05

    def test_linear_halves_the_error_at_equal_mesh(self, truth):
        mesh = structured_rectangle_mesh(*DIE, 10, 10)
        constant = solve_kle(self.KERNEL, mesh, num_eigenpairs=6)
        linear = solve_kle_linear(self.KERNEL, mesh, num_eigenpairs=6)
        err_c = np.abs(constant.eigenvalues[:6] - truth).max()
        err_l = np.abs(linear.eigenvalues[:6] - truth).max()
        assert err_l < 0.5 * err_c

    def test_constant_needs_a_finer_mesh_for_parity(self, truth):
        def top_error(solver, cells):
            mesh = structured_rectangle_mesh(*DIE, cells, cells)
            kle = solver(self.KERNEL, mesh, num_eigenpairs=1)
            return abs(kle.eigenvalues[0] - truth[0])

        err_linear = top_error(solve_kle_linear, 8)
        assert err_linear < top_error(solve_kle, 8)
        assert top_error(solve_kle, 16) < 2.0 * err_linear


class TestAdaptiveMeshAblation:
    """Gate-density-graded mesh vs uniform mesh at equal triangle budget
    on a clustered placement (80 % of gates in one half of the die)."""

    @pytest.fixture(scope="class")
    def gates(self):
        rng = np.random.default_rng(7)
        return np.concatenate(
            [
                rng.uniform(-0.98, -0.02, (400, 2)),
                rng.uniform(-0.98, 0.98, (100, 2)),
            ]
        )

    @pytest.fixture(scope="class")
    def meshes(self, gates):
        size_field = gate_density_area_limit(
            gates, DIE, dense_area=0.008, sparse_area=0.12
        )
        adaptive = refine_rectangle(*DIE, area_limit_fn=size_field)
        uniform = refine_to_triangle_count(*DIE, adaptive.num_triangles)
        return adaptive, uniform

    def test_adaptive_mesh_is_graded(self, meshes):
        adaptive, _uniform = meshes
        in_cluster = adaptive.centroids[:, 0] < 0
        dense = float(adaptive.areas[in_cluster].mean())
        sparse = float(adaptive.areas[~in_cluster].mean())
        assert dense < 0.5 * sparse

    def test_adaptive_beats_uniform_in_rms(self, meshes, gates):
        """The max error moves to the few sparse-region gates, the known
        trade-off of graded meshes; the RMS over gate pairs improves."""
        rms = []
        for mesh in meshes:
            kle = solve_kle(PAPER_GAUSSIAN, mesh, num_eigenpairs=60)
            diff = _covariance_error(kle, gates, 25)
            rms.append(float(np.sqrt(np.mean(diff * diff))))
        assert rms[0] < rms[1]


# ----------------------------------------------------------------------
# Extensions (DESIGN.md §7).
# ----------------------------------------------------------------------
def test_block_ssta_tracks_monte_carlo_on_c1908(context):
    """One canonical-form pass over the 25 KLE variables against the
    4000-sample Alg. 2 flow it replaces."""
    netlist, placement = context.circuit("c1908"), context.placement("c1908")
    mc = MonteCarloSSTA(
        netlist, placement, context.kernel, context.kle, r=25
    ).run_kle(4000, seed=0)
    block = BlockSSTA(netlist, placement, context.kle, r=25).run()
    mean = mc.sta.mean_worst_delay()
    sigma = mc.sta.std_worst_delay()
    assert abs(block.mean_worst_delay() - mean) / mean < 0.02
    assert abs(block.std_worst_delay() - sigma) / sigma < 0.25


def test_qmc_in_the_reduced_dimension_improves_the_mean(context):
    """Sobol' and antithetic xi draws estimate the c880 worst-delay mean
    better than pseudo-random ones at N = 512 (mean error over 8
    replicates, against a 30000-sample reference)."""
    placement = context.placement("c880")
    engine = STAEngine(context.circuit("c880"), placement)
    locations = placement.gate_locations()
    kles = {name: context.kle for name in STATISTICAL_PARAMETERS}
    reference = engine.run(
        KLESampleGenerator(kles, r=25)
        .generate(locations, 30000, seed=999)
        .samples
    )
    mean_ref = reference.mean_worst_delay()
    sigma_ref = reference.std_worst_delay()
    errors = {}
    for sampler in ("pseudo", "antithetic", "sobol"):
        generator = KLESampleGenerator(kles, r=25, sampler=sampler)
        mean_errs, sigma_errs = [], []
        for rep in range(8):
            result = engine.run(
                generator.generate(locations, 512, seed=2000 + rep).samples
            )
            mean_errs.append(abs(result.mean_worst_delay() / mean_ref - 1))
            sigma_errs.append(abs(result.std_worst_delay() / sigma_ref - 1))
        errors[sampler] = (np.mean(mean_errs), np.mean(sigma_errs))
    assert errors["sobol"][0] < errors["pseudo"][0]
    assert errors["antithetic"][0] < errors["pseudo"][0]
    # The sigma estimate does not regress beyond noise.
    assert errors["sobol"][1] < 2.0 * errors["pseudo"][1]


class TestWireVariation:
    """Wire R/C fields on the same kernel through both SSTA flows."""

    @pytest.fixture(scope="class")
    def harnesses(self, context):
        netlist, placement = context.circuit("c1355"), context.placement(
            "c1355"
        )
        plain = MonteCarloSSTA(
            netlist, placement, context.kernel, context.kle, r=25
        )
        wired = MonteCarloSSTA(
            netlist,
            placement,
            context.kernel,
            context.kle,
            r=25,
            wire_sigma={"R": 0.10, "C": 0.08},
        )
        return plain, wired

    def test_table1_agreement_survives_wire_variation(self, harnesses):
        row = harnesses[1].compare(1500, seed=0)
        assert row.e_mu_percent < 1.0
        assert row.e_sigma_percent < 12.0

    def test_wire_variation_widens_sigma(self, harnesses):
        plain, wired = harnesses
        without = plain.run_kle(1500, seed=3).sta.std_worst_delay()
        with_wires = wired.run_kle(1500, seed=3).sta.std_worst_delay()
        assert with_wires > without
