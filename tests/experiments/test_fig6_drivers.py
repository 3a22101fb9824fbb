"""Small-configuration tests of the Fig. 6 sweep drivers.

The c1908 sweeps at N = 2000 are in tests/test_reproduction.py; here we
verify the drivers' mechanics (shapes, determinism, trend at drastic
settings) cheaply.
"""

import pytest

from repro.experiments.fig6 import fig6a_error_vs_r, fig6b_error_vs_n


@pytest.fixture(scope="module")
def sweep_a():
    return fig6a_error_vs_r(
        circuit="c880", r_values=(2, 20), num_samples=400, seed=1
    )


def test_fig6a_structure(sweep_a):
    assert sweep_a.swept == "r"
    assert sweep_a.circuit == "c880"
    assert [p.swept_value for p in sweep_a.points] == [2, 20]
    assert sweep_a.num_samples == 400


def test_fig6a_trend_extreme_r(sweep_a):
    """r = 2 discards most field variance -> much larger sigma error."""
    errors = {p.swept_value: p.sigma_error_percent for p in sweep_a.points}
    assert errors[2] > errors[20]
    assert errors[2] > 5.0


def test_fig6a_reports_worst_metric_too(sweep_a):
    for point in sweep_a.points:
        assert point.worst_sigma_error_percent >= 0.0


def test_fig6b_structure_and_trend():
    sweep = fig6b_error_vs_n(
        circuit="c880", n_values=(24, 400), r=20, num_samples=400, seed=2
    )
    assert sweep.swept == "n"
    values = [p.swept_value for p in sweep.points]
    assert values[0] < values[1]  # actual triangle counts, ascending
    errors = [p.sigma_error_percent for p in sweep.points]
    assert errors[0] > errors[1]


def test_fig6a_deterministic():
    a = fig6a_error_vs_r(circuit="c880", r_values=(5,), num_samples=200, seed=3)
    b = fig6a_error_vs_r(circuit="c880", r_values=(5,), num_samples=200, seed=3)
    assert a.points[0].sigma_error_percent == pytest.approx(
        b.points[0].sigma_error_percent
    )
