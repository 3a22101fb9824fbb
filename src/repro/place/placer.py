"""Recursive min-cut bisection placement (the Capo [23] stand-in).

Gates are placed on the die by recursively bipartitioning the netlist with
FM (:mod:`repro.place.partition`) while splitting the die region in half,
alternating cut direction with region aspect ratio.  Leaf regions receive
their gates on a small uniform grid.  Primary I/O nets get pad locations
spread around the die periphery.

This reproduces the property the paper's experiment needs from Capo:
connected gates end up spatially clustered, so spatially correlated
parameter variation translates into correlated timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuit.netlist import Netlist
from repro.place.partition import fm_bipartition
from repro.utils.rng import SeedLike, as_generator, spawn_generators


@dataclass(frozen=True)
class Placement:
    """A placed netlist.

    Attributes
    ----------
    netlist: the placed circuit.
    bounds: die rectangle ``(xmin, ymin, xmax, ymax)``.
    gate_positions: gate name → ``(x, y)``.
    pad_positions: primary-I/O net name → ``(x, y)`` on the periphery.
    """

    netlist: Netlist
    bounds: Tuple[float, float, float, float]
    gate_positions: Dict[str, Tuple[float, float]]
    pad_positions: Dict[str, Tuple[float, float]]

    def gate_locations(self) -> np.ndarray:
        """``(N_g, 2)`` gate coordinates in ``netlist.gates`` order.

        This is the ``g_i`` array consumed by Algorithms 1 and 2.
        """
        return np.array(
            [self.gate_positions[g.name] for g in self.netlist.gates],
            dtype=float,
        )

    def position_of_net_driver(self, net: str) -> Tuple[float, float]:
        """Location of whatever drives ``net`` (gate or input pad)."""
        driver = self.netlist.driver_of(net)
        if driver is None:
            return self.pad_positions[net]
        return self.gate_positions[driver.name]

    def net_pin_positions(self, net: str) -> List[Tuple[float, float]]:
        """All pin locations of ``net``: driver, gate sinks, PO pad."""
        positions = [self.position_of_net_driver(net)]
        for gate, _pin in self.netlist.sinks_of(net):
            positions.append(self.gate_positions[gate.name])
        if net in self.netlist.primary_outputs and net in self.pad_positions:
            positions.append(self.pad_positions[net])
        return positions


def _netlist_hypergraph(netlist: Netlist) -> List[List[int]]:
    """Nets as hyperedges over gate indices (I/O pads omitted)."""
    gate_index = {gate.name: i for i, gate in enumerate(netlist.gates)}
    nets: List[List[int]] = []
    for net in netlist.nets:
        pins: List[int] = []
        driver = netlist.driver_of(net)
        if driver is not None:
            pins.append(gate_index[driver.name])
        for gate, _pin in netlist.sinks_of(net):
            pins.append(gate_index[gate.name])
        if len(set(pins)) >= 2:
            nets.append(sorted(set(pins)))
    return nets


def place_netlist(
    netlist: Netlist,
    bounds: Tuple[float, float, float, float] = (-1.0, -1.0, 1.0, 1.0),
    *,
    leaf_size: int = 8,
    max_passes: int = 3,
    seed: SeedLike = None,
) -> Placement:
    """Place all gates of ``netlist`` inside ``bounds``.

    Parameters
    ----------
    leaf_size:
        Recursion stops when a region holds at most this many gates; they
        are then arranged on a uniform grid inside the region.
    max_passes:
        FM passes per bisection (2–4 is the usual quality/runtime point).
    seed:
        Seeds both the FM starting partitions and leaf-level ordering;
        placement is deterministic given the seed.
    """
    xmin, ymin, xmax, ymax = bounds
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("bounds must describe a positive-area rectangle")
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    num_gates = netlist.num_gates
    rng = as_generator(seed)
    positions = np.zeros((num_gates, 2), dtype=float)

    if num_gates > 0:
        nets = _netlist_hypergraph(netlist)
        cells = np.arange(num_gates)
        _bisect(
            cells, nets, (xmin, ymin, xmax, ymax), positions, leaf_size,
            max_passes, rng,
        )

    gate_positions = {
        gate.name: (float(positions[i, 0]), float(positions[i, 1]))
        for i, gate in enumerate(netlist.gates)
    }
    pad_positions = _peripheral_pads(netlist, bounds)
    return Placement(netlist, bounds, gate_positions, pad_positions)


def _bisect(
    cells: np.ndarray,
    nets: List[List[int]],
    region: Tuple[float, float, float, float],
    positions: np.ndarray,
    leaf_size: int,
    max_passes: int,
    rng: np.random.Generator,
) -> None:
    """Recursively split ``cells`` (global indices) into ``region``."""
    xmin, ymin, xmax, ymax = region
    if len(cells) <= leaf_size:
        _place_leaf(cells, region, positions, rng)
        return

    # Re-index the sub-hypergraph to local cell numbering.
    local_of = {cell: i for i, cell in enumerate(cells.tolist())}
    local_nets: List[List[int]] = []
    for net in nets:
        pins = [local_of[c] for c in net if c in local_of]
        if len(pins) >= 2:
            local_nets.append(pins)

    child_seed = int(rng.integers(0, 2**63 - 1))
    sides = fm_bipartition(
        len(cells),
        local_nets,
        max_passes=max_passes,
        seed=child_seed,
    )
    left_cells = cells[sides == 0]
    right_cells = cells[sides == 1]
    if len(left_cells) == 0 or len(right_cells) == 0:
        _place_leaf(cells, region, positions, rng)
        return

    # Split the longer region side, proportionally to the cell counts.
    frac = len(left_cells) / len(cells)
    if (xmax - xmin) >= (ymax - ymin):
        xsplit = xmin + frac * (xmax - xmin)
        left_region = (xmin, ymin, xsplit, ymax)
        right_region = (xsplit, ymin, xmax, ymax)
    else:
        ysplit = ymin + frac * (ymax - ymin)
        left_region = (xmin, ymin, xmax, ysplit)
        right_region = (xmin, ysplit, xmax, ymax)

    # Keep only nets with two cells in a child (cut nets may appear in
    # both); a net lists each of its cells once.
    left_set = set(left_cells.tolist())
    right_set = set(right_cells.tolist())
    left_nets = [n for n in nets if len(left_set.intersection(n)) >= 2]
    right_nets = [n for n in nets if len(right_set.intersection(n)) >= 2]
    _bisect(left_cells, left_nets, left_region, positions, leaf_size,
            max_passes, rng)
    _bisect(right_cells, right_nets, right_region, positions, leaf_size,
            max_passes, rng)


def _place_leaf(
    cells: np.ndarray,
    region: Tuple[float, float, float, float],
    positions: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Arrange leaf cells on a uniform grid inside the region."""
    xmin, ymin, xmax, ymax = region
    count = len(cells)
    if count == 0:
        return
    cols = max(1, int(math.ceil(math.sqrt(count))))
    rows = max(1, int(math.ceil(count / cols)))
    order = rng.permutation(count)
    for slot, cell_pos in enumerate(order):
        cell = cells[cell_pos]
        row, col = divmod(slot, cols)
        fx = (col + 0.5) / cols
        fy = (row + 0.5) / rows
        positions[cell, 0] = xmin + fx * (xmax - xmin)
        positions[cell, 1] = ymin + fy * (ymax - ymin)


def _peripheral_pads(
    netlist: Netlist,
    bounds: Tuple[float, float, float, float],
) -> Dict[str, Tuple[float, float]]:
    """Spread primary-I/O pads evenly around the die periphery."""
    xmin, ymin, xmax, ymax = bounds
    width = xmax - xmin
    height = ymax - ymin
    perimeter = 2.0 * (width + height)
    pad_nets = list(netlist.primary_inputs) + [
        net for net in netlist.primary_outputs
        if net not in set(netlist.primary_inputs)
    ]
    pads: Dict[str, Tuple[float, float]] = {}
    count = max(len(pad_nets), 1)
    for i, net in enumerate(pad_nets):
        distance = perimeter * (i + 0.5) / count
        if distance < width:
            pads[net] = (xmin + distance, ymin)
        elif distance < width + height:
            pads[net] = (xmax, ymin + (distance - width))
        elif distance < 2.0 * width + height:
            pads[net] = (xmax - (distance - width - height), ymax)
        else:
            pads[net] = (xmin, ymax - (distance - 2.0 * width - height))
    return pads
