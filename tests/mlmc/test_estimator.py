"""MLMC estimator tests: exact degenerate limit, telescoping, allocation."""

import json

import numpy as np
import pytest

from repro.mlmc import (
    KLERankHierarchy,
    MLMCEstimator,
    SurrogateKLEHierarchy,
    optimal_allocation,
)
from repro.timing.ssta import MonteCarloSSTA


@pytest.fixture(scope="module")
def rank_estimator(c880, c880_placement, gaussian_kle):
    hierarchy = KLERankHierarchy(gaussian_kle, [8, 20])
    return MLMCEstimator(c880, c880_placement, hierarchy)


def test_degenerate_single_level_is_bitwise_plain_mc(
    c880, c880_placement, gaussian_kernel, gaussian_kle
):
    """L=0 MLMC with an integer seed must reproduce MonteCarloSSTA.run_kle
    exactly — same normals, same fields, same worst delays."""
    hierarchy = KLERankHierarchy(gaussian_kle, [20])
    estimator = MLMCEstimator(c880, c880_placement, hierarchy)
    result = estimator.run(n_samples=[150], seed=42, keep_samples=True)
    plain = MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=20
    ).run_kle(150, seed=42)
    np.testing.assert_array_equal(
        result.level_worst_delays[0], plain.sta.worst_delay
    )
    assert result.mean == plain.sta.mean_worst_delay()
    assert result.levels[0].coarse_mean is None
    assert result.consistency.passed  # vacuous for one level
    assert result.rates.alpha is None


def test_two_level_run_matches_single_level_statistically(
    rank_estimator, c880, c880_placement, gaussian_kernel, gaussian_kle
):
    result = rank_estimator.run(
        n_samples=[600, 300], seed=3, quantiles=(0.95,)
    )
    plain = MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=20
    ).run_kle(2000, seed=11)
    mean_plain = plain.sta.mean_worst_delay()
    spread = np.hypot(
        result.estimator_sem, plain.sta.std_worst_delay() / np.sqrt(2000)
    )
    assert abs(result.mean - mean_plain) < 5.0 * spread
    assert result.consistency.passed
    assert result.total_samples == 900
    assert result.levels[1].coarse_mean is not None
    assert 0.95 in result.quantiles
    assert result.quantiles[0.95] > result.mean


def test_variance_decays_up_the_ladder(rank_estimator):
    result = rank_estimator.run(n_samples=[400, 200], seed=8)
    assert result.levels[1].variance < 0.2 * result.levels[0].variance


def test_adaptive_run_hits_tolerance(rank_estimator):
    result = rank_estimator.run(eps=20.0, seed=5, initial_samples=64)
    assert result.eps == 20.0
    assert result.target_met
    assert result.estimator_sem <= 20.0
    # Coarse level is cheap-ish but high-variance: it must get the bulk.
    assert result.levels[0].num_samples >= result.levels[1].num_samples


def test_surrogate_hierarchy_agrees_with_plain_mc(
    c880, c880_placement, gaussian_kernel, gaussian_kle
):
    hierarchy = SurrogateKLEHierarchy(gaussian_kle, r=20)
    estimator = MLMCEstimator(c880, c880_placement, hierarchy)
    result = estimator.run(n_samples=[3000, 200], seed=2)
    plain = MonteCarloSSTA(
        c880, c880_placement, gaussian_kernel, gaussian_kle, r=20
    ).run_kle(3000, seed=13)
    spread = np.hypot(
        result.estimator_sem, plain.sta.std_worst_delay() / np.sqrt(3000)
    )
    assert abs(result.mean - plain.sta.mean_worst_delay()) < 5.0 * spread
    assert result.levels[0].timer == "linear"
    # The surrogate level must be much cheaper per sample than full STA.
    assert (
        result.levels[0].cost_per_sample
        < 0.5 * result.levels[1].cost_per_sample
    )
    assert result.setup_seconds > 0.0


def test_surrogate_ladder_meets_eps_on_the_paper_kle():
    """The adaptive surrogate ladder on c880 with the paper's KLE reaches
    eps = 25 ps, and its telescoping check (the broken-coupling
    detector) passes."""
    from repro.experiments.common import get_context

    context = get_context()
    estimator = MLMCEstimator(
        context.circuit("c880"),
        context.placement("c880"),
        SurrogateKLEHierarchy(context.kle, r=25),
    )
    result = estimator.run(eps=25.0, seed=2008, initial_samples=64)
    assert result.consistency.passed, (
        f"telescoping consistency failed: max |z| = "
        f"{result.consistency.max_z:.2f}"
    )
    assert result.target_met, (
        f"adaptive run missed eps: sem = {result.estimator_sem:.2f}"
    )


def test_matched_accuracy_run_agrees_with_single_level():
    """At the tolerance single-level rank-25 KLE MC reaches with N = 4000
    on c1908, surrogate MLMC agrees with it on mean and sigma, and its
    telescoping check passes.  How much faster it gets there is a
    measurement, not a test (EXPERIMENTS.md, extension 5)."""
    from repro.experiments.mlmc_convergence import run_mlmc_speedup

    report = run_mlmc_speedup("c1908", r=25, num_samples=4000, seed=2008)
    assert report.matched, (
        f"MLMC and single-level estimates disagree: mean z = "
        f"{report.mean_z:.2f}, sigma z = {report.sigma_z:.2f}"
    )
    assert report.mlmc.consistency.passed, (
        f"telescoping consistency failed: max |z| = "
        f"{report.mlmc.consistency.max_z:.2f}"
    )


def test_chunked_run_matches_unchunked_statistics(rank_estimator):
    chunked = rank_estimator.run(n_samples=[256, 64], seed=21, chunk_size=50)
    assert chunked.total_samples == 320
    assert np.isfinite(chunked.mean)
    assert chunked.std > 0.0


def test_result_to_dict_is_json_serializable(rank_estimator):
    result = rank_estimator.run(n_samples=[64, 32], seed=1, quantiles=(0.9,))
    payload = json.dumps(result.to_dict())
    parsed = json.loads(payload)
    assert parsed["total_samples"] == 96
    assert len(parsed["levels"]) == 2
    assert "consistency" in parsed and "rates" in parsed
    assert "report" not in parsed
    assert "0.9" in parsed["quantiles_ps"]


def test_format_report_mentions_levels(rank_estimator):
    result = rank_estimator.run(n_samples=[64, 32], seed=1)
    report = result.format_report()
    assert "rank-8" in report and "rank-20" in report
    assert "telescoping consistency" in report


def test_run_argument_validation(rank_estimator):
    with pytest.raises(ValueError, match="exactly one"):
        rank_estimator.run()
    with pytest.raises(ValueError, match="exactly one"):
        rank_estimator.run(eps=1.0, n_samples=[10, 10])
    with pytest.raises(ValueError, match="entries"):
        rank_estimator.run(n_samples=[10])
    with pytest.raises(ValueError, match="eps must be positive"):
        rank_estimator.run(eps=-1.0)


def test_optimal_allocation_formula():
    """N_l = ceil(eps^-2 sqrt(V_l/C_l) * sum sqrt(V_k C_k)), floored at 2."""
    eps, v, c = 0.1, [4.0, 1.0], [1.0, 4.0]
    counts = optimal_allocation(eps, v, c)
    total = np.sqrt(4.0 * 1.0) + np.sqrt(1.0 * 4.0)  # = 4
    assert counts[0] == int(np.ceil(100 * np.sqrt(4.0) * total))
    assert counts[1] == int(np.ceil(100 * np.sqrt(0.25) * total))
    # Achieves the variance target: sum V_l / N_l <= eps^2.
    assert sum(vv / nn for vv, nn in zip(v, counts)) <= eps**2
    assert optimal_allocation(1e9, v, c).min() >= 2
    with pytest.raises(ValueError, match="positive"):
        optimal_allocation(0.0, v, c)
