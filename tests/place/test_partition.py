"""Tests for the Fiduccia–Mattheyses bipartitioner."""

import hashlib

import numpy as np
import pytest

from repro.place.partition import cut_size, fm_bipartition


def test_dumbbell_optimal_cut():
    """Two triangles joined by one net: FM must find the cut of 1."""
    nets = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
    sides = fm_bipartition(6, nets, seed=1)
    assert cut_size(nets, sides) == 1
    assert sides[0] == sides[1] == sides[2]
    assert sides[3] == sides[4] == sides[5]


def test_two_cliques_with_hyperedges():
    """4+4 cliques as hyperedges, one bridging hyperedge; a few restarts
    reliably escape the flat-FM local optimum."""
    nets = [[0, 1, 2, 3], [4, 5, 6, 7], [3, 4]]
    sides = fm_bipartition(8, nets, seed=0, restarts=5)
    assert cut_size(nets, sides) == 1


def test_restarts_never_hurt():
    rng = np.random.default_rng(13)
    nets = [list(rng.choice(30, size=3, replace=False)) for _ in range(60)]
    single = cut_size(nets, fm_bipartition(30, nets, seed=5, restarts=1))
    multi = cut_size(nets, fm_bipartition(30, nets, seed=5, restarts=6))
    assert multi <= single


def test_restarts_validation():
    with pytest.raises(ValueError, match="restarts"):
        fm_bipartition(4, [[0, 1]], restarts=0)


def test_balance_respected():
    rng = np.random.default_rng(2)
    nets = [list(rng.choice(40, size=3, replace=False)) for _ in range(80)]
    sides = fm_bipartition(40, nets, balance_tolerance=0.1, seed=3)
    count = int(sides.sum())
    assert 14 <= count <= 26  # 0.5 +/- tol/2 plus one-cell slack


def test_weighted_balance():
    weights = np.ones(10)
    weights[0] = 5.0
    nets = [[i, i + 1] for i in range(9)]
    sides = fm_bipartition(
        10, nets, weights=weights, balance_tolerance=0.2, seed=4
    )
    heavy_side = sides[0]
    side_weight = weights[sides == heavy_side].sum()
    assert side_weight <= 0.5 * weights.sum() + 5.0 + 0.2 * weights.sum()


def test_cut_never_worse_than_initial():
    rng = np.random.default_rng(5)
    nets = [list(rng.choice(30, size=2, replace=False)) for _ in range(60)]
    initial = np.array([i % 2 for i in range(30)], dtype=np.int8)
    before = cut_size(nets, initial)
    sides = fm_bipartition(30, nets, initial_sides=initial.copy(), seed=6)
    assert cut_size(nets, sides) <= before


def test_deterministic_given_seed():
    rng = np.random.default_rng(7)
    nets = [list(rng.choice(25, size=3, replace=False)) for _ in range(40)]
    a = fm_bipartition(25, nets, seed=11)
    b = fm_bipartition(25, nets, seed=11)
    assert np.array_equal(a, b)


def test_singleton_and_wide_nets_ignored():
    nets = [[0], [1, 1], list(range(20))]  # singleton, dup-pin, over-wide
    sides = fm_bipartition(20, nets, net_degree_cap=10, seed=8)
    assert sides.shape == (20,)


def test_no_nets_still_balanced():
    sides = fm_bipartition(12, [], seed=9)
    assert 5 <= int(sides.sum()) <= 7


def test_input_validation():
    with pytest.raises(ValueError, match="num_cells"):
        fm_bipartition(0, [])
    with pytest.raises(ValueError, match="out of range"):
        fm_bipartition(3, [[0, 5]])
    with pytest.raises(ValueError, match="one entry per cell"):
        fm_bipartition(3, [[0, 1]], weights=np.ones(2))
    with pytest.raises(ValueError, match="one entry per cell"):
        fm_bipartition(3, [[0, 1]], initial_sides=np.zeros(2, dtype=np.int8))


def test_cut_size_counts_correctly():
    nets = [[0, 1], [1, 2], [0, 2]]
    sides = np.array([0, 0, 1], dtype=np.int8)
    assert cut_size(nets, sides) == 2


# ---------------------------------------------------------------------------
# Pinned outputs on seeded random hypergraphs.
# ---------------------------------------------------------------------------
def _pinned_cases():
    rng = np.random.default_rng(20)
    n = 120
    nets = [
        list(rng.choice(n, size=int(rng.integers(2, 6)), replace=False))
        for _ in range(260)
    ]
    with_wide = nets + [list(range(0, n, 2)), list(range(n))]
    weights = rng.uniform(0.5, 3.0, n)
    initial = (rng.random(n) < 0.5).astype(np.int8)
    return {
        "plain": lambda: fm_bipartition(n, nets, seed=1),
        "weights": lambda: fm_bipartition(n, nets, weights=weights, seed=2),
        "initial_sides": lambda: fm_bipartition(n, nets, initial_sides=initial),
        "restarts": lambda: fm_bipartition(n, nets, seed=3, restarts=4),
        "tight_balance": lambda: fm_bipartition(
            n, nets, weights=weights, balance_tolerance=0.0, seed=4
        ),
        "over_wide_nets": lambda: fm_bipartition(
            n, with_wide, net_degree_cap=40, seed=5, max_passes=6
        ),
    }


#: sha256 of the int8 sides from the FM pass that kept its state in numpy
#: arrays.  The cases between them defer moves for balance and roll passes
#: back in part and in full; the list-based pass must match bit for bit.
PINNED_SIDES = {
    "plain": "ffc31067585e2f7ab973a0dfb188aa9227ce36d9672d151deeeffba2412b7727",
    "weights": "a715a0c6c8cfc4ed98c7c9785826e2075e6a8f2d39e291c5bd372f566472a9ce",
    "initial_sides": (
        "f1e69a78b67ada760cc41aa3c3f229f7f1884913517a47a7a72a63d395243933"
    ),
    "restarts": "8f5a803b95b30a4661c4a9ef0c24535d290b36b7603b1d5ef76892ae18dffbc6",
    "tight_balance": (
        "3310f2e1282ae37d07176a0558fdc4e4b1269e629e7702be063f897905438349"
    ),
    "over_wide_nets": (
        "efd444513d53bf22ef203603a9f78e92bd3f2f7784e47b345ff8baa201a78ef7"
    ),
}


@pytest.mark.parametrize("name", list(PINNED_SIDES))
def test_sides_are_bitwise_pinned(name):
    sides = _pinned_cases()[name]()
    assert sides.dtype == np.int8
    assert hashlib.sha256(sides.tobytes()).hexdigest() == PINNED_SIDES[name]
