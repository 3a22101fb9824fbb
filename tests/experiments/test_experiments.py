"""Tests for the figure/table experiment drivers (small configurations).

These verify the *shape* claims of each exhibit at reduced sizes; the
paper-scale claims are in tests/test_reproduction.py and
tests/test_regression_goldens.py.
"""

import numpy as np
import pytest

from repro.experiments.common import ExperimentContext
from repro.experiments.fig1 import fig1a_kernel_surface, fig1b_field_outcomes
from repro.experiments.fig3 import fig3a_kernel_fits, fig3b_reconstruction_error
from repro.experiments.fig45 import fig4_eigenfunctions, fig5_eigenvalue_decay
from repro.experiments.table1 import (
    default_table1_circuits,
    format_table1,
    run_table1,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext()


def test_context_memoizes(context):
    assert context.kernel is context.kernel
    assert context.mesh is context.mesh
    assert context.circuit("c17") is context.circuit("c17")


def test_fig1a_surface_properties(context):
    data = fig1a_kernel_surface(context.kernel, resolution=31)
    assert data.values.shape == (31, 31)
    center = data.values[15, 15]
    assert center == pytest.approx(1.0)
    assert data.values.min() >= 0.0
    # Correlation decays away from the centre in every direction.
    assert data.values[0, 0] < 0.01
    # Isotropy: the four mid-edge values agree.
    edges = [
        data.values[0, 15],
        data.values[-1, 15],
        data.values[15, 0],
        data.values[15, -1],
    ]
    assert np.ptp(edges) < 1e-9


def test_fig1b_outcomes(context):
    data = fig1b_field_outcomes(context.kernel, resolution=16, num_outcomes=2,
                                seed=1)
    assert data.outcomes.shape == (2, 16, 16)
    assert not np.allclose(data.outcomes[0], data.outcomes[1])
    # Normalized field: std across the map near 1.
    assert 0.5 < data.outcomes.std() < 1.5


def test_fig3a_gaussian_wins():
    data = fig3a_kernel_fits()
    assert data.gaussian_wins
    assert data.gaussian.rmse < data.exponential.rmse
    assert data.gaussian.max_error < data.exponential.max_error


def test_fig3b_reconstruction_small_error(gaussian_kle):
    report = fig3b_reconstruction_error(gaussian_kle, r=25)
    assert report.max_abs_error < 0.05


def test_fig4_eigenfunction_maps(gaussian_kle):
    data = fig4_eigenfunctions(gaussian_kle, count=2, resolution=15)
    assert len(data.maps) == 2
    assert data.maps[0].shape == (15, 15)
    # First eigenfunction sign-definite, second oscillates (Fourier-like).
    assert np.all(data.maps[0] > 0) or np.all(data.maps[0] < 0)
    assert np.any(data.maps[1] > 0) and np.any(data.maps[1] < 0)


def test_fig5_decay_and_truncation(gaussian_kle):
    data = fig5_eigenvalue_decay(gaussian_kle)
    assert data.selected_r < data.eigenvalues.shape[0]
    assert data.variance_captured > 0.97
    # Rapid decay: the 30th eigenvalue is tiny relative to the first.
    assert data.eigenvalues[29] < 0.02 * data.eigenvalues[0]


def test_fig4_count_validation(gaussian_kle):
    with pytest.raises(ValueError, match="count"):
        fig4_eigenfunctions(gaussian_kle, count=0)


def test_default_table1_circuits_respects_gate(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    names = default_table1_circuits()
    assert "s35932" not in names
    assert "c880" in names
    monkeypatch.setenv("REPRO_FULL", "1")
    assert "s35932" in default_table1_circuits()


def test_run_table1_unknown_circuit_fails_fast():
    with pytest.raises(KeyError, match="unknown benchmark"):
        run_table1(circuits=["c9999"], num_samples=10)


def test_format_table1_layout():
    rows = run_table1(circuits=["c880"], num_samples=60, seed=0)
    text = format_table1(rows)
    assert "c880" in text
    assert "e_sigma" in text.splitlines()[0] or "e_sigma" in text
    assert len(text.splitlines()) == 3


def test_default_engine_env(monkeypatch):
    from repro.experiments.common import default_engine

    assert default_engine() == "compiled"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert default_engine() == "reference"
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    import pytest as _pytest

    with _pytest.raises(ValueError, match="REPRO_ENGINE"):
        default_engine()


def test_run_table1_row_chunked():
    from repro.experiments.table1 import run_table1_row

    row = run_table1_row(
        "c880", num_samples=90, seed=0, r=10, chunk_size=40
    )
    assert row.num_samples == 90
    assert row.e_mu_percent >= 0.0
