"""Fiduccia–Mattheyses (FM) min-cut hypergraph bipartitioning.

The building block of the recursive-bisection placer
(:mod:`repro.place.placer`) that stands in for the Capo placer [23] — Capo
itself is built around exactly this style of multilevel min-cut bisection.

Implementation notes: single-level FM with gain buckets, cell locking, and
best-prefix rollback, iterated for a few passes.  Nets wider than
``net_degree_cap`` are ignored for gain purposes (the standard treatment of
clock/reset-like nets, which otherwise drown the cut signal).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator


class _GainBuckets:
    """Cells filed by integer gain, with a moving max pointer.

    ``gains`` is every cell's current gain; :meth:`bump` keeps a filed
    cell under its current gain.
    """

    def __init__(self, gains: List[int], max_gain: int):
        self.gains = gains
        self.offset = max_gain
        self.buckets: List[Dict[int, None]] = [
            {} for _ in range(2 * max_gain + 1)
        ]
        for cell, gain in enumerate(gains):
            self.buckets[gain + max_gain][cell] = None
        self.max_index = max(gains, default=-1 - max_gain) + max_gain

    def insert(self, cell: int, gain: int) -> None:
        index = gain + self.offset
        self.buckets[index][cell] = None
        if index > self.max_index:
            self.max_index = index

    def bump(self, cell: int, delta: int) -> None:
        """Add ``delta`` to ``cell``'s gain and re-file it last under it."""
        gain = self.gains[cell]
        self.buckets[gain + self.offset].pop(cell, None)
        gain += delta
        self.gains[cell] = gain
        index = gain + self.offset
        self.buckets[index][cell] = None
        if index > self.max_index:
            self.max_index = index

    def pop_best(self) -> Optional[tuple]:
        while self.max_index >= 0:
            bucket = self.buckets[self.max_index]
            if bucket:
                cell = next(iter(bucket))
                del bucket[cell]
                return cell, self.max_index - self.offset
            self.max_index -= 1
        return None


def cut_size(nets: Sequence[Sequence[int]], sides: np.ndarray) -> int:
    """Number of nets with cells on both sides of the partition."""
    side_of = np.asarray(sides).tolist()
    count = 0
    for net in nets:
        first = side_of[net[0]]
        if any(side_of[cell] != first for cell in net[1:]):
            count += 1
    return count


def fm_bipartition(
    num_cells: int,
    nets: Sequence[Sequence[int]],
    *,
    weights: Optional[np.ndarray] = None,
    balance_tolerance: float = 0.1,
    max_passes: int = 4,
    net_degree_cap: int = 50,
    seed: SeedLike = None,
    initial_sides: Optional[np.ndarray] = None,
    restarts: int = 1,
) -> np.ndarray:
    """Bipartition ``num_cells`` cells to minimize hyperedge cut.

    Parameters
    ----------
    nets:
        Hyperedges as lists of cell indices (duplicates tolerated; width-1
        nets ignored).
    weights:
        Optional per-cell area weights for the balance constraint
        (default: unit).
    balance_tolerance:
        Each side must hold within ``(0.5 ± tol/2)`` of the total weight.
    max_passes:
        FM passes; each pass is a full move sequence with best-prefix
        rollback.  Stops early when a pass yields no improvement.
    seed / initial_sides:
        Either a random balanced initial partition (seeded) or an explicit
        starting assignment.
    restarts:
        Number of independent random starts (best cut wins).  Flat FM is a
        local optimizer; a few restarts substantially de-noise the result.
        Ignored when ``initial_sides`` is given.

    Returns
    -------
    sides:
        ``(num_cells,)`` int8 array of 0/1 side assignments.
    """
    if num_cells < 1:
        raise ValueError(f"num_cells must be >= 1, got {num_cells}")
    if weights is None:
        weights = np.ones(num_cells)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (num_cells,):
            raise ValueError("weights must have one entry per cell")
    rng = as_generator(seed)

    # Clean nets: dedupe pins, drop singletons and over-wide nets.
    clean_nets: List[List[int]] = []
    for net in nets:
        pins = sorted(set(map(int, net)))
        if len(pins) < 2 or len(pins) > net_degree_cap:
            continue
        if pins[0] < 0 or pins[-1] >= num_cells:
            raise ValueError(f"net pin out of range: {pins}")
        clean_nets.append(pins)

    cell_nets: List[List[int]] = [[] for _ in range(num_cells)]
    for net_index, net in enumerate(clean_nets):
        for cell in net:
            cell_nets[cell].append(net_index)

    total_weight = float(weights.sum())
    # One-cell slack on top of the tolerance window: classic FM must be able
    # to make *some* move even when both sides sit exactly at the bound,
    # otherwise tight windows (small regions) freeze the pass entirely.
    slack = float(weights.max()) if len(weights) else 0.0
    high = total_weight * (0.5 + balance_tolerance / 2.0) + slack
    max_degree = max((len(n) for n in cell_nets), default=1)

    def random_balanced_start() -> np.ndarray:
        weight = weights.tolist()
        sides = np.zeros(num_cells, dtype=np.int8)
        running = 0.0
        half = total_weight / 2.0
        for cell in rng.permutation(num_cells).tolist():
            if running < half:
                running += weight[cell]
            else:
                sides[cell] = 1
        return sides

    def optimize(sides: np.ndarray) -> np.ndarray:
        for _ in range(max_passes):
            if not _fm_pass(
                sides, weights, clean_nets, cell_nets, high, max_degree
            ):
                break
        return sides

    if initial_sides is not None:
        sides = np.asarray(initial_sides, dtype=np.int8).copy()
        if sides.shape != (num_cells,):
            raise ValueError("initial_sides must have one entry per cell")
        return optimize(sides)

    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    # The lowest cut wins, the earliest start on ties.
    best_sides = optimize(random_balanced_start())
    if restarts == 1:
        return best_sides
    best_cut = cut_size(clean_nets, best_sides)
    for _ in range(restarts - 1):
        sides = optimize(random_balanced_start())
        cut = cut_size(clean_nets, sides)
        if cut < best_cut:
            best_sides, best_cut = sides, cut
    return best_sides


def _fm_pass(
    sides: np.ndarray,
    weights: np.ndarray,
    nets: List[List[int]],
    cell_nets: List[List[int]],
    high: float,
    max_degree: int,
) -> bool:
    """One FM pass; mutates ``sides`` in place; returns True on improvement.

    The pass keeps its state in Python lists, because indexing numpy
    scalars would dominate the inner loops; ``sides`` is written once, at
    the end, with the kept prefix of moves.
    """
    side_of: List[int] = sides.tolist()
    weight: List[float] = weights.tolist()
    num_cells = len(side_of)
    # Per-net side population counts.
    count = [[0, 0] for _ in nets]
    for net_count, net in zip(count, nets):
        for cell in net:
            net_count[side_of[cell]] += 1

    gains: List[int] = []
    for cell, side in enumerate(side_of):
        g = 0
        for net_index in cell_nets[cell]:
            net_count = count[net_index]
            if net_count[side] == 1:
                g += 1
            if net_count[1 - side] == 0:
                g -= 1
        gains.append(g)

    buckets = _GainBuckets(gains, max(max_degree, 1))
    bump = buckets.bump

    side_weight = [
        float(weights[sides == 0].sum()), float(weights[sides == 1].sum())
    ]
    locked = [False] * num_cells
    moves: List[int] = []
    gain_history: List[int] = []
    deferred: List[tuple] = []

    while True:
        best = buckets.pop_best()
        while best is not None:
            cell, gain = best
            if locked[cell] or gain != gains[cell]:
                best = buckets.pop_best()  # stale entry
                continue
            if side_weight[1 - side_of[cell]] + weight[cell] > high:
                deferred.append((cell, gain))
                best = buckets.pop_best()
                continue
            break
        for cell_d, gain_d in deferred:
            if not locked[cell_d] and gain_d == gains[cell_d]:
                buckets.insert(cell_d, gain_d)
        deferred = []
        if best is None:
            break

        cell, gain = best
        from_side = side_of[cell]
        to_side = 1 - from_side
        locked[cell] = True
        side_of[cell] = to_side
        side_weight[from_side] -= weight[cell]
        side_weight[to_side] += weight[cell]
        moves.append(cell)
        gain_history.append(gain)

        # Incremental gain update (standard FM bookkeeping).
        for net_index in cell_nets[cell]:
            net = nets[net_index]
            net_count = count[net_index]
            before_to = net_count[to_side]
            if before_to == 0:
                for other in net:
                    if not locked[other]:
                        bump(other, 1)
            elif before_to == 1:
                for other in net:
                    if not locked[other] and side_of[other] == to_side:
                        bump(other, -1)
            net_count[from_side] -= 1
            net_count[to_side] += 1
            after_from = net_count[from_side]
            if after_from == 0:
                for other in net:
                    if not locked[other]:
                        bump(other, -1)
            elif after_from == 1:
                for other in net:
                    if not locked[other] and side_of[other] == from_side:
                        bump(other, 1)

    if not moves:
        return False
    prefix_sums = np.cumsum(gain_history)
    best_index = int(np.argmax(prefix_sums))
    if prefix_sums[best_index] <= 0:
        return False  # roll back every move: ``sides`` was never written
    # Keep the best prefix of moves.
    sides[moves[: best_index + 1]] ^= 1
    return True
