"""Timing analysis utilities on top of the STA/SSTA engines.

Post-processing a designer actually uses the timing distributions for:

- :func:`nominal_critical_path` — trace the worst nominal path (the
  classic STA report),
- :func:`timing_yield` / :func:`required_period` — parametric yield
  against a target clock period from MC worst-delay samples,
- :func:`end_point_criticality` — per-end-point probability of being the
  circuit-limiting path, the statistical generalization of "the critical
  path" that makes spatial correlation visible (correlated dies shift
  criticality between paths coherently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.timing.sta import STAEngine, STAResult
from repro.timing.wire import peri_slew


@dataclass(frozen=True)
class CriticalPath:
    """The worst nominal path through the circuit.

    Attributes
    ----------
    nets:
        Net names from the timing start point to the end point, in signal
        order (start net first).
    gates:
        Gate names traversed (one fewer than nets when the start is a PI).
    arrival_ps:
        Nominal arrival time at the end point.
    """

    nets: List[str]
    gates: List[str]
    arrival_ps: float

    @property
    def depth(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class _NominalPass:
    """The scalar nominal forward pass.

    ``arrival`` maps every net to its arrival (ps), ``winner`` each gate
    name to the input net that set its arrival, and ``pin_delay`` each
    ``(gate name, pin)`` to its wire plus gate delay.
    """

    arrival: Dict[str, float]
    winner: Dict[str, str]
    pin_delay: Dict[Tuple[str, int], float]


def _nominal_pass(engine: STAEngine) -> _NominalPass:
    """Time the deterministic corner with scalars, pin by pin.

    Primary inputs launch at 0 with the technology's input slew and DFF
    outputs at their clock→Q delay.  Each pin's Bakoglu-degraded slew
    sets its gate delay; a gate's arrival is the latest
    ``(arrival + wire) + gate`` over its pins, the engine's sum, and on a
    tie the earlier pin wins.
    """
    netlist = engine.netlist
    input_slew = float(engine.library.technology.default_input_slew_ps)
    arrival: Dict[str, float] = {}
    slew: Dict[str, float] = {}
    winner: Dict[str, str] = {}
    pin_delay: Dict[Tuple[str, int], float] = {}
    for net in netlist.primary_inputs:
        arrival[net] = 0.0
        slew[net] = input_slew
    for dff in netlist.sequential_gates():
        model = engine._models[dff.name]
        load = engine._wires[dff.output].total_cap_ff
        arrival[dff.output] = model.nominal_delay(0.0, load)
        slew[dff.output] = model.nominal_slew(0.0, load)

    for gate in engine.levelized.gates_in_order:
        model = engine._models[gate.name]
        load = engine._wires[gate.output].total_cap_ff
        best_arrival = -np.inf
        best_slew = 0.0
        best_net = gate.inputs[0]
        for pin, net in enumerate(gate.inputs):
            slot = engine._sink_slot[(net, gate.name, pin)]
            wire_delay = float(engine._wires[net].sink_delay_ps[slot])
            pin_slew = float(peri_slew(slew[net], wire_delay))
            gate_delay = model.nominal_delay(pin_slew, load)
            pin_delay[(gate.name, pin)] = wire_delay + gate_delay
            candidate = arrival[net] + wire_delay + gate_delay
            if candidate > best_arrival:
                best_arrival = candidate
                best_slew = model.nominal_slew(pin_slew, load)
                best_net = net
        arrival[gate.output] = best_arrival
        slew[gate.output] = best_slew
        winner[gate.name] = best_net
    return _NominalPass(arrival, winner, pin_delay)


def nominal_critical_path(engine: STAEngine) -> CriticalPath:
    """Trace the worst nominal path (deterministic corner).

    Runs the scalar nominal forward pass, which records each gate's
    winning input net, then walks backward from the worst end point.
    """
    netlist = engine.netlist
    forward = _nominal_pass(engine)
    arrival = forward.arrival
    end_net = max(
        engine.levelized.end_nets, key=lambda net: arrival.get(net, -np.inf)
    )
    nets: List[str] = [end_net]
    gates: List[str] = []
    current = end_net
    while True:
        driver = netlist.driver_of(current)
        if driver is None or driver.is_sequential:
            break
        gates.append(driver.name)
        current = forward.winner[driver.name]
        nets.append(current)
    nets.reverse()
    gates.reverse()
    return CriticalPath(
        nets=nets, gates=gates, arrival_ps=float(arrival[end_net])
    )


def compute_slacks(
    engine: STAEngine, clock_period_ps: float
) -> Dict[str, float]:
    """Nominal per-net slack against a clock period (forward + backward STA).

    Slack of a net = required time − arrival time at the net source.  The
    minimum slack over all nets equals ``clock − worst delay``; nets on the
    nominal critical path share that minimum.  Nets that reach no timing
    end point (dangling spare logic) get ``+inf``.
    """
    if clock_period_ps <= 0.0:
        raise ValueError("clock period must be positive")
    netlist = engine.netlist
    levelized = engine.levelized
    forward = _nominal_pass(engine)

    # Backward pass: required times.
    required: Dict[str, float] = {net: np.inf for net in netlist.nets}
    for net in levelized.end_nets:
        required[net] = min(required[net], float(clock_period_ps))
    for gate in reversed(levelized.gates_in_order):
        req_out = required[gate.output]
        for pin, net in enumerate(gate.inputs):
            candidate = req_out - forward.pin_delay[(gate.name, pin)]
            if candidate < required[net]:
                required[net] = candidate
    # DFF data pins are end nets already handled; DFF input loading of its
    # source net is through the end-net requirement above.
    return {
        net: float(required[net] - forward.arrival.get(net, 0.0))
        for net in netlist.nets
    }


def timing_yield(worst_delays: np.ndarray, clock_period_ps: float) -> float:
    """Fraction of MC outcomes meeting a clock period."""
    worst_delays = np.asarray(worst_delays, dtype=float)
    if worst_delays.size == 0:
        raise ValueError("need at least one worst-delay sample")
    if clock_period_ps <= 0.0:
        raise ValueError("clock period must be positive")
    return float(np.mean(worst_delays <= clock_period_ps))


def required_period(
    worst_delays: np.ndarray, yield_target: float
) -> float:
    """Smallest clock period achieving ``yield_target`` (MC quantile)."""
    worst_delays = np.asarray(worst_delays, dtype=float)
    if worst_delays.size == 0:
        raise ValueError("need at least one worst-delay sample")
    if not 0.0 < yield_target <= 1.0:
        raise ValueError(f"yield_target must be in (0, 1], got {yield_target}")
    return float(np.quantile(worst_delays, yield_target))


@dataclass(frozen=True)
class DistributionSummary:
    """Moment summary of a delay distribution.

    The max of (correlated) Gaussians is right-skewed, so the Gaussian
    summaries that block-based SSTA reports are systematically optimistic
    in the upper tail; ``gaussian_q997_gap_ps`` quantifies that: the
    empirical 99.7 % quantile minus the Gaussian (μ + 2.748σ) prediction.
    """

    mean_ps: float
    std_ps: float
    skewness: float
    excess_kurtosis: float
    quantile_q997_ps: float
    gaussian_q997_gap_ps: float


def distribution_summary(worst_delays: np.ndarray) -> DistributionSummary:
    """Moments + tail diagnostics of an MC worst-delay sample."""
    worst_delays = np.asarray(worst_delays, dtype=float)
    if worst_delays.size < 8:
        raise ValueError("need at least 8 samples for moment estimates")
    mean = float(worst_delays.mean())
    std = float(worst_delays.std())
    if std <= 0.0:
        raise ValueError("degenerate (zero-variance) delay sample")
    centered = (worst_delays - mean) / std
    skewness = float(np.mean(centered**3))
    kurtosis = float(np.mean(centered**4) - 3.0)
    from scipy.stats import norm

    q = 0.997
    empirical = float(np.quantile(worst_delays, q))
    gaussian = mean + std * float(norm.ppf(q))
    return DistributionSummary(
        mean_ps=mean,
        std_ps=std,
        skewness=skewness,
        excess_kurtosis=kurtosis,
        quantile_q997_ps=empirical,
        gaussian_q997_gap_ps=empirical - gaussian,
    )


def end_point_criticality(
    result: STAResult, *, tolerance_ps: float = 1e-9
) -> Dict[str, float]:
    """Probability each end point limits the circuit (per MC sample).

    Samples where several end points tie within ``tolerance_ps`` credit
    each of them, so the values can sum to slightly more than 1.
    """
    if not result.end_arrivals:
        return {}
    worst = result.worst_delay
    return {
        net: float(np.mean(values >= worst - tolerance_ps))
        for net, values in result.end_arrivals.items()
    }


def dominant_end_points(
    result: STAResult, *, coverage: float = 0.95
) -> List[Tuple[str, float]]:
    """The smallest set of end points covering ``coverage`` of criticality.

    Returns ``(net, criticality)`` pairs sorted by decreasing criticality;
    useful to see how spatial correlation concentrates (or spreads) the
    statistically critical paths.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    crit = end_point_criticality(result)
    ranked = sorted(crit.items(), key=lambda item: -item[1])
    total = sum(value for _net, value in ranked)
    if total <= 0.0:
        return ranked[:1]
    selected: List[Tuple[str, float]] = []
    accumulated = 0.0
    for net, value in ranked:
        selected.append((net, value))
        accumulated += value
        if accumulated >= coverage * total:
            break
    return selected
