"""Interconnect timing: Elmore delay [19] and PERI slew [20] with the
Bakoglu metric [21].

Two layers:

- :class:`RCTree` — a general RC tree with exact Elmore delays (the
  textbook downstream-capacitance formulation), usable for any topology.
- :func:`star_wire_model` — the model the SSTA flow uses: each placed net
  becomes a star RC tree sized by its half-perimeter wirelength (§5.1),
  with per-sink Elmore delays and PERI slew degradation.

PERI (PERIod extension, Kashyap et al. [20]) extends step-response metrics
to ramp inputs; with the Bakoglu slew metric ``t_slew = ln 9 · t_elmore``
it reduces to the familiar root-sum-square composition

    slew_out = sqrt(slew_in² + (ln 9 · t_elmore)²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.timing.library import Technology

#: Scalar or per-sample ``(N,)`` scale factor (broadcast by the wire model).
ArrayOrFloat = Union[float, np.ndarray]

LN9 = math.log(9.0)


class RCTree:
    """An RC tree rooted at a driver node, with exact Elmore delays.

    Nodes are added with a parent reference, a wire resistance on the edge
    from the parent, and a node-to-ground capacitance.  Elmore delay to node
    ``k`` is ``Σ_e R_e · C_downstream(e)`` along the root→k path, computed
    for all nodes in two linear passes.
    """

    def __init__(self, root_name: str = "root"):
        self._names: List[str] = [root_name]
        self._parent: List[int] = [-1]
        self._resistance: List[float] = [0.0]
        self._capacitance: List[float] = [0.0]
        self._index: Dict[str, int] = {root_name: 0}

    def add_node(
        self,
        name: str,
        parent: str,
        resistance_kohm: float,
        capacitance_ff: float,
    ) -> None:
        """Attach ``name`` below ``parent`` with edge R and node C."""
        if name in self._index:
            raise ValueError(f"duplicate RC node {name!r}")
        if parent not in self._index:
            raise ValueError(f"unknown parent node {parent!r}")
        if resistance_kohm < 0.0 or capacitance_ff < 0.0:
            raise ValueError("resistance and capacitance must be >= 0")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._parent.append(self._index[parent])
        self._resistance.append(float(resistance_kohm))
        self._capacitance.append(float(capacitance_ff))

    def add_cap(self, name: str, extra_ff: float) -> None:
        """Add load capacitance (e.g. a sink pin) to an existing node."""
        self._capacitance[self._index[name]] += float(extra_ff)

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    def total_capacitance(self) -> float:
        """Total tree capacitance — the load the driver sees."""
        return float(sum(self._capacitance))

    def downstream_capacitance(self) -> np.ndarray:
        """Capacitance at-or-below each node (children come after parents)."""
        downstream = np.array(self._capacitance, dtype=float)
        for node in range(self.num_nodes - 1, 0, -1):
            downstream[self._parent[node]] += downstream[node]
        return downstream

    def elmore_delays(self) -> Dict[str, float]:
        """Elmore delay (ps) from the root to every node."""
        downstream = self.downstream_capacitance()
        delays = np.zeros(self.num_nodes)
        for node in range(1, self.num_nodes):
            delays[node] = (
                delays[self._parent[node]]
                + self._resistance[node] * downstream[node]
            )
        return {name: float(delays[i]) for i, name in enumerate(self._names)}

    def elmore_delay_to(self, name: str) -> float:
        """Elmore delay (ps) from the root to one named node."""
        try:
            index = self._index[name]
        except KeyError:
            raise KeyError(f"no RC node named {name!r}") from None
        return self.elmore_delays()[self._names[index]]


def bakoglu_slew(elmore_delay_ps: float) -> float:
    """Bakoglu 10–90 % slew metric of a step into an RC: ``ln 9 · t_d``."""
    if elmore_delay_ps < 0.0:
        raise ValueError("Elmore delay must be >= 0")
    return LN9 * elmore_delay_ps


def peri_slew(
    slew_in_ps: ArrayOrFloat, elmore_delay_ps: ArrayOrFloat
) -> np.ndarray:
    """PERI ramp-input slew at a sink: root-sum-square composition.

    Vectorized over numpy arrays in either argument.
    """
    step = LN9 * np.asarray(elmore_delay_ps, dtype=float)
    slew_in = np.asarray(slew_in_ps, dtype=float)
    return np.sqrt(slew_in * slew_in + step * step)


@dataclass(frozen=True)
class WireModel:
    """Precomputed interconnect timing of one placed net.

    Attributes
    ----------
    total_cap_ff:
        Load seen by the driving gate (wire + all sink pins).
    sink_delay_ps:
        Elmore delay from driver to each sink pin, in sink order.
    sink_slew_step_ps:
        Bakoglu slew step of each sink's wire segment (combined with the
        driver output slew via PERI at STA time).
    wire_cap_ff / pin_cap_ff:
        The split of ``total_cap_ff`` into metal capacitance (which scales
        with interconnect-process variation) and device pin capacitance
        (which does not) — consumed by the wire-variation extension.
    sink_res_cap_split:
        ``(num_sinks, 2)`` decomposition of each sink's Elmore delay into
        ``R_branch · C_branch/2`` (scales with both R and C variation) and
        ``R_branch · C_pin`` (scales with R only).
    """

    total_cap_ff: float
    sink_delay_ps: np.ndarray
    sink_slew_step_ps: np.ndarray
    wire_cap_ff: float = 0.0
    pin_cap_ff: float = 0.0
    sink_res_cap_split: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.sink_res_cap_split is None:
            # Degenerate split: attribute the whole delay to the R-only
            # term (exact when wire cap is zero).
            split = np.stack(
                [np.zeros_like(self.sink_delay_ps), self.sink_delay_ps],
                axis=1,
            )
            object.__setattr__(self, "sink_res_cap_split", split)

    def scaled_sink_delay(
        self, r_scale: ArrayOrFloat, c_scale: ArrayOrFloat
    ) -> np.ndarray:
        """Per-sink Elmore delay under wire R/C scale factors.

        ``r_scale`` and ``c_scale`` broadcast (scalars or ``(N,)`` sample
        arrays); returns shape ``(..., num_sinks)``.  The R·C_wire/2 term
        scales with both factors, the R·C_pin term with R only.
        """
        r_scale = np.asarray(r_scale, dtype=float)[..., None]
        c_scale = np.asarray(c_scale, dtype=float)[..., None]
        rc_term = self.sink_res_cap_split[:, 0]
        rpin_term = self.sink_res_cap_split[:, 1]
        return r_scale * c_scale * rc_term + r_scale * rpin_term

    def scaled_total_cap(self, c_scale: ArrayOrFloat) -> np.ndarray:
        """Driver load under a wire-capacitance scale factor."""
        c_scale = np.asarray(c_scale, dtype=float)
        return self.pin_cap_ff + c_scale * self.wire_cap_ff


@dataclass(frozen=True)
class PackedWireModels:
    """Flat-array view of every net's wire model (compiled-engine input).

    Per-net quantities are ``(num_nets,)`` columns in the caller's net
    order; per-sink quantities are concatenated into flat arrays addressed
    as ``sink_offset[net_column] + slot`` — the ``(net, slot)`` pair the
    STA engine already tracks per gate pin becomes a single gather index.
    """

    total_cap_ff: np.ndarray     # (num_nets,) driver load at nominal
    wire_cap_ff: np.ndarray      # (num_nets,) metal share of the load
    sink_offset: np.ndarray      # (num_nets,) start of each net's sink run
    sink_delay_ps: np.ndarray    # (total_sinks,) nominal Elmore delays
    sink_rc_half: np.ndarray     # (total_sinks,) R·C_wire/2 term (R and C scale)
    sink_r_pin: np.ndarray       # (total_sinks,) R·C_pin term (R-only scale)

    def flat_sink_index(self, net_column: int, slot: int) -> int:
        """Flat index of one ``(net, slot)`` sink pin."""
        return int(self.sink_offset[net_column]) + slot


def pack_wire_models(
    wires: Mapping[str, WireModel], net_order: Sequence[str]
) -> PackedWireModels:
    """Concatenate per-net :class:`WireModel` data into flat arrays.

    ``net_order`` fixes the column convention (the same order the engine's
    ``wire_scales`` matrices use), so the compiled program can turn every
    per-pin wire-delay lookup into an array gather.
    """
    total_cap = np.empty(len(net_order))
    wire_cap = np.empty(len(net_order))
    offsets = np.empty(len(net_order), dtype=np.int64)
    delays: List[np.ndarray] = []
    rc_halves: List[np.ndarray] = []
    r_pins: List[np.ndarray] = []
    position = 0
    for column, net in enumerate(net_order):
        wire = wires[net]
        total_cap[column] = wire.total_cap_ff
        wire_cap[column] = wire.wire_cap_ff
        offsets[column] = position
        delays.append(np.asarray(wire.sink_delay_ps, dtype=float))
        rc_halves.append(np.asarray(wire.sink_res_cap_split[:, 0], dtype=float))
        r_pins.append(np.asarray(wire.sink_res_cap_split[:, 1], dtype=float))
        position += len(wire.sink_delay_ps)
    empty = np.zeros(0)
    return PackedWireModels(
        total_cap_ff=total_cap,
        wire_cap_ff=wire_cap,
        sink_offset=offsets,
        sink_delay_ps=np.concatenate(delays) if delays else empty,
        sink_rc_half=np.concatenate(rc_halves) if rc_halves else empty,
        sink_r_pin=np.concatenate(r_pins) if r_pins else empty,
    )


def star_wire_model(
    driver_position: Tuple[float, float],
    sink_positions: Sequence[Tuple[float, float]],
    sink_pin_caps_ff: Sequence[float],
    technology: Technology,
    *,
    hpwl_normalized: Optional[float] = None,
) -> WireModel:
    """Build the per-net star RC model used by the SSTA flow.

    The net's total wire length comes from its half-perimeter wirelength
    (``hpwl_normalized``; computed from driver+sinks when omitted).  Wire
    capacitance is distributed over the star; each sink's branch resistance
    follows its Manhattan distance from the driver, and Elmore gives

        t_k = R_branch_k · (C_branch_k / 2 + C_pin_k)

    i.e. the branch sees half its own wire cap plus the sink pin.
    """
    sinks = [tuple(map(float, p)) for p in sink_positions]
    caps = [float(c) for c in sink_pin_caps_ff]
    if len(sinks) != len(caps):
        raise ValueError("one pin cap per sink position required")
    if hpwl_normalized is None:
        if sinks:
            xs = [driver_position[0]] + [p[0] for p in sinks]
            ys = [driver_position[1]] + [p[1] for p in sinks]
            hpwl_normalized = (max(xs) - min(xs)) + (max(ys) - min(ys))
        else:
            hpwl_normalized = 0.0
    wire_um = technology.normalized_to_um(float(hpwl_normalized))
    wire_cap = wire_um * technology.wire_cap_ff_per_um
    total_cap = wire_cap + sum(caps)

    branch_um = np.array(
        [
            technology.normalized_to_um(
                abs(p[0] - driver_position[0]) + abs(p[1] - driver_position[1])
            )
            for p in sinks
        ],
        dtype=float,
    )
    branch_res = branch_um * technology.wire_res_kohm_per_um
    # Distribute the wire cap over branches proportionally to length (all of
    # it on branches; the star hub is the driver pin itself).
    total_branch = float(branch_um.sum())
    if total_branch > 0.0:
        branch_cap = wire_cap * branch_um / total_branch
    else:
        branch_cap = np.zeros_like(branch_um)
    rc_half = branch_res * branch_cap / 2.0
    r_pin = branch_res * np.asarray(caps, dtype=float)
    sink_delay = rc_half + r_pin
    slew_step = LN9 * sink_delay
    return WireModel(
        total_cap_ff=float(total_cap),
        sink_delay_ps=sink_delay,
        sink_slew_step_ps=slew_step,
        wire_cap_ff=float(wire_cap),
        pin_cap_ff=float(sum(caps)),
        sink_res_cap_split=np.stack([rc_half, r_pin], axis=1),
    )
