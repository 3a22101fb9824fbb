"""Golden-value regression locks.

Pins the key reproduced quantities so an accidental behavior change in any
substrate (mesher, fit, eigensolve, generator, placer, timer) surfaces as
a visible diff rather than silently shifting every experiment.  Values are
deterministic (fixed seeds); tolerances cover floating-point/platform
noise only.  If a change is *intentional*, update the goldens and the
corresponding rows in EXPERIMENTS.md together.
"""

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.core.galerkin import solve_kle
from repro.core.kernel_fit import paper_experiment_kernel
from repro.mesh.refine import paper_mesh


@pytest.fixture(scope="module")
def paper_setup():
    kernel = paper_experiment_kernel()
    mesh = paper_mesh()
    kle = solve_kle(kernel, mesh, num_eigenpairs=200)
    return kernel, mesh, kle


def test_golden_experiment_kernel_c(paper_setup):
    kernel, _mesh, _kle = paper_setup
    assert kernel.c == pytest.approx(2.72394, rel=1e-4)


def test_golden_paper_mesh_size(paper_setup):
    _kernel, mesh, _kle = paper_setup
    assert mesh.num_triangles == 1580  # paper: 1546 with Triangle
    assert mesh.num_vertices == 851
    assert mesh.min_angle_degrees() == pytest.approx(28.17, abs=0.2)


def test_golden_leading_eigenvalues(paper_setup):
    _kernel, _mesh, kle = paper_setup
    expected = [0.86391, 0.56263, 0.56261, 0.36645, 0.27960]
    assert kle.num_eigenpairs == 200
    assert np.allclose(kle.eigenvalues[:5], expected, rtol=2e-3)


def test_golden_truncation_order(paper_setup):
    _kernel, _mesh, kle = paper_setup
    assert kle.select_truncation() == 24  # paper: 25
    assert kle.variance_captured(24) == pytest.approx(0.9902, abs=2e-3)


def test_golden_reconstruction_error(paper_setup):
    from repro.core.validation import kernel_reconstruction_report

    _kernel, _mesh, kle = paper_setup
    report = kernel_reconstruction_report(kle, r=25)
    assert report.max_abs_error == pytest.approx(0.0045, abs=0.002)
    assert report.rms_error < report.max_abs_error


def test_golden_c880_structure():
    netlist = load_circuit("c880")
    from repro.circuit.levelize import levelize

    assert netlist.num_gates == 383
    assert levelize(netlist).depth == 15
    histogram = netlist.gate_type_histogram()
    assert histogram["NAND"] == pytest.approx(100, abs=25)


def test_golden_c880_nominal_delay():
    """Locks placer + library + wire model + STA together."""
    from repro.experiments.common import ExperimentContext
    from repro.timing.sta import STAEngine

    context = ExperimentContext()
    netlist = context.circuit("c880")
    placement = context.placement("c880")
    engine = STAEngine(netlist, placement)
    nominal = engine.nominal().mean_worst_delay()
    # Placement seed 2008, default technology.
    assert nominal == pytest.approx(5104.0, rel=0.02)


def test_golden_analytic_exponential_eigenvalue():
    from repro.core.analytic import exponential_kle_1d

    pair = exponential_kle_1d(1.0, 1.0, 1)[0]
    # Known value: omega ~ 0.860334, lambda = 2/(omega^2 + 1) ~ 1.1493.
    assert pair.omega == pytest.approx(0.8603335890, rel=1e-8)
    assert pair.eigenvalue == pytest.approx(1.1493104327, rel=1e-8)
