"""Gate-level static timing engine, vectorized over Monte-Carlo samples.

This is the "core timer inside the Monte Carlo loops" of the paper's §5.1:

- Elmore delay for wire delay [19],
- PERI slew propagation with the Bakoglu metric [20][21],
- rank-one quadratic gate delay/slew models in (L, W, Vt, tox) [22],
- worst-slew-of-worst-path propagation through topological order.

Vectorization: all ``N`` Monte-Carlo samples are timed simultaneously —
every net's arrival time and slew is an ``(N,)`` array and gate evaluation
is numpy arithmetic on those arrays.  One engine pass therefore replaces N
scalar STA runs; both Algorithm 1 and Algorithm 2 feed the same engine, so
their comparison isolates the sample-generation difference exactly as the
paper intends.

Engines: the default ``engine="compiled"`` flattens the netlist once per
``STAEngine`` into a :class:`~repro.timing.compiled.CompiledTimingProgram`
and evaluates it with the native kernel (:mod:`repro.timing.native`),
wire R/C variation included.  The per-gate Python loop is
``engine="reference"``: the oracle for differential testing, and what
``engine="compiled"`` runs when the kernel is unavailable (no C
compiler, a failed build, ``REPRO_NO_NATIVE=1``).  Both produce
identical results to floating-point round-off.

Memory: net arrays are released as soon as their last sink gate has
consumed them, so peak memory scales with the circuit's level width rather
than its size, and the native kernel runs the sample axis in cache-sized
blocks.  A run times the samples it is handed; streaming belongs to the
flows: ``MonteCarloSSTA.run_kle``/``run_reference`` with ``chunk_size=``
generate and time one chunk at a time, so paper-scale ``N = 100K`` runs
never hold all ``N × N_g`` samples at once.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist
from repro.field.sampling import FieldSamples, GateBasis, RowMap
from repro.place.placer import Placement
from repro.timing.compiled import CompiledTimingProgram
from repro.timing.library import (
    STATISTICAL_PARAMETERS,
    CellLibrary,
    GateTimingModel,
    pack_gate_models,
)
from repro.timing.wire import WireModel, peri_slew, star_wire_model

#: Engine modes accepted by :class:`STAEngine`.
ENGINE_MODES = ("compiled", "reference")

_PO_PAD_CAP_FF = 2.0  # output pad / downstream-stage load on primary outputs


@dataclass(frozen=True)
class STAResult:
    """Outcome of one (vectorized) timing run.

    Attributes
    ----------
    end_arrivals:
        Timing end net → ``(N,)`` arrival-time array (ps).
    worst_delay:
        ``(N,)`` worst arrival over all end points per sample — the
        circuit-delay distribution the paper's Table 1 statistics summarize.
    num_samples: N.
    """

    end_arrivals: Dict[str, np.ndarray]
    worst_delay: np.ndarray
    num_samples: int

    def mean_worst_delay(self) -> float:
        """Sample mean of the worst delay over the MC samples (ps)."""
        return float(np.mean(self.worst_delay))

    def std_worst_delay(self) -> float:
        """Sample standard deviation of the worst delay (ps)."""
        return float(np.std(self.worst_delay))

    def quantile_worst_delay(self, q: float) -> float:
        """Exact empirical ``q``-quantile of the worst delay (ps).

        Duck-types :meth:`StreamingSTAResult.quantile_worst_delay`; here
        all samples are retained, so the quantile is the exact sorted one.
        """
        return float(np.quantile(self.worst_delay, q))

    def output_sigma(self) -> Dict[str, float]:
        """Per-end-point delay standard deviation (σ_d of Fig. 6)."""
        return {
            net: float(np.std(values))
            for net, values in self.end_arrivals.items()
        }

    def output_mean(self) -> Dict[str, float]:
        """Per-end-point mean arrival time (ps)."""
        return {
            net: float(np.mean(values))
            for net, values in self.end_arrivals.items()
        }


@dataclass(frozen=True)
class _SampleInput:
    """The validated statistical input of one run.

    ``products`` pairs each ``(N, N_g)`` parameter matrix with its
    per-gate weight column (plain mappings, projected per block);
    ``field_rows`` are factored samples' ``(rows, N)`` field rows, read
    through ``row_map``.  Neither: a nominal run.
    """

    num_samples: int
    products: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()
    field_rows: Optional[np.ndarray] = None
    row_map: Optional[RowMap] = None


class STAEngine:
    """Precompiled timing view of a placed netlist.

    Construction precomputes everything deterministic — topological order,
    per-gate timing models, per-net wire models and per-pin wire delays —
    so that :meth:`run` only does the per-sample arithmetic.

    Parameters
    ----------
    netlist / placement:
        The circuit and its placement (wire loads come from net HPWL).
    library:
        Cell library; a default 90nm-class library when omitted.
    engine:
        ``"compiled"`` (default) runs the flattened program on the native
        kernel, or the reference loop when the kernel is unavailable;
        ``"reference"`` always runs the per-gate Python loop.
        :meth:`run` can override per call.
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        library: Optional[CellLibrary] = None,
        *,
        engine: str = "compiled",
        native_threads: Optional[int] = None,
    ):
        if placement.netlist is not netlist:
            raise ValueError("placement does not belong to this netlist")
        if engine not in ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if native_threads is not None and int(native_threads) < 1:
            raise ValueError(
                f"native_threads must be >= 1, got {native_threads!r}"
            )
        self.netlist = netlist
        self.placement = placement
        self.library = library or CellLibrary()
        self.engine = engine
        #: Default worker count for the native kernel's sample-parallel
        #: entry point; ``None`` defers to ``REPRO_NATIVE_THREADS``.
        #: Bitwise-neutral: results never depend on this knob.
        self.native_threads = (
            None if native_threads is None else int(native_threads)
        )
        self.levelized = levelize(netlist)
        self._gate_index: Dict[str, int] = {
            gate.name: i for i, gate in enumerate(netlist.gates)
        }
        self._models: Dict[str, GateTimingModel] = {}
        for gate in netlist.gates:
            self._models[gate.name] = self.library.model_for(
                gate.gate_type, gate.num_inputs
            )
        self._packed_models = pack_gate_models(
            [self._models[gate.name] for gate in netlist.gates]
        )
        self._wires: Dict[str, WireModel] = {}
        # (net, sink gate name, pin) -> index into the wire model's arrays.
        self._sink_slot: Dict[Tuple[str, str, int], int] = {}
        self._build_wire_models()
        # How many gate pins read each net (for memory reclamation).
        self._pin_counts: Dict[str, int] = {
            net: len(netlist.sinks_of(net)) for net in netlist.nets
        }
        self._program: Optional[CompiledTimingProgram] = None
        self._program_lock = threading.Lock()
        # Each factored basis's row map under this engine's weights,
        # built on its first run; an entry lives as long as its basis.
        self._row_maps: "weakref.WeakKeyDictionary[GateBasis, RowMap]" = (
            weakref.WeakKeyDictionary()
        )
        self._row_map_lock = threading.Lock()

    @property
    def program(self) -> CompiledTimingProgram:
        """The compiled program the kernel runs (built on first use, cached).

        Thread-safe: concurrent first accesses (the service layer warms
        engines from worker threads) build the program exactly once.
        """
        if self._program is None:
            with self._program_lock:
                if self._program is None:
                    self._program = CompiledTimingProgram(
                        self.netlist,
                        self.levelized,
                        [self._models[gate.name] for gate in self.netlist.gates],
                        self._wires,
                        self.net_order(),
                    )
        return self._program

    def _build_wire_models(self) -> None:
        technology = self.library.technology
        for net in self.netlist.nets:
            driver_pos = self.placement.position_of_net_driver(net)
            sink_positions: List[Tuple[float, float]] = []
            sink_caps: List[float] = []
            for slot, (gate, pin) in enumerate(self.netlist.sinks_of(net)):
                sink_positions.append(self.placement.gate_positions[gate.name])
                sink_caps.append(self._models[gate.name].input_cap_ff)
                self._sink_slot[(net, gate.name, pin)] = slot
            if net in self.netlist.primary_outputs:
                pad = self.placement.pad_positions.get(net)
                if pad is not None:
                    sink_positions.append(pad)
                    sink_caps.append(_PO_PAD_CAP_FF)
            self._wires[net] = star_wire_model(
                driver_pos, sink_positions, sink_caps, technology
            )

    # ------------------------------------------------------------------
    # The timing run.
    # ------------------------------------------------------------------
    def net_order(self) -> List[str]:
        """Deterministic net ordering used by the wire-variation extension.

        Columns of ``wire_scales`` arrays follow this order.
        """
        return list(self.netlist.nets)

    def net_driver_locations(self) -> np.ndarray:
        """``(num_nets, 2)`` driver locations in :meth:`net_order` order.

        Feed these to a sample generator to build spatially correlated
        wire R/C scale fields (each net's metal is attributed to its
        driver's location).
        """
        return np.array(
            [
                self.placement.position_of_net_driver(net)
                for net in self.net_order()
            ],
            dtype=float,
        )

    def run(
        self,
        parameter_samples: Optional[Mapping[str, np.ndarray]] = None,
        *,
        wire_scales: Optional[Mapping[str, np.ndarray]] = None,
        engine: Optional[str] = None,
        native_threads: Optional[int] = None,
    ) -> STAResult:
        """Time the circuit for all samples at once.

        Parameters
        ----------
        parameter_samples:
            Mapping from parameter name (a subset of ``("L","W","Vt","tox")``)
            to an ``(N, N_g)`` array of normalized values, columns in
            ``netlist.gates`` order — exactly what :mod:`repro.field.sampling`
            produces.  Algorithm 2's factored
            :class:`~repro.field.sampling.FieldSamples` are read as field
            rows (one GEMM per parameter, or one in all, per generated
            sample set) through the basis's row map under this engine's
            per-gate weights, which is built on the basis's first run
            and kept; their per-parameter fields and ``u`` are never
            built.  Plain mappings are projected block by block.
            ``None`` runs a nominal (deterministic) analysis: one sample,
            or one per wire-scale row.
        wire_scales:
            Optional interconnect-variation extension: mapping with keys
            ``"R"`` and/or ``"C"`` to ``(N, num_nets)`` *multiplicative
            scale factors* (nominal = 1.0) on each net's metal resistance
            and capacitance, columns in :meth:`net_order` order.  Wire
            Elmore delays, slew steps, and the metal share of gate loads
            scale accordingly; device pin caps do not.  The paper varies
            only gate parameters — this extension exploits the method's
            parameter-agnosticism ("no restriction imposed by our
            technique").  A nominal run takes one sample per scale
            row; any other run needs one scale row per sample.
        engine:
            Per-call override of the engine mode (``"compiled"`` or
            ``"reference"``); defaults to the constructor's choice.
        native_threads:
            Per-call override of the native kernel's worker count
            (``None`` → the engine's :attr:`native_threads`, then
            ``REPRO_NATIVE_THREADS``).  Results are bitwise identical
            for every thread count — only wall-clock changes.

        The primary-input slew is the library's
        ``technology.default_input_slew_ps``.
        """
        if engine is None:
            engine = self.engine
        if native_threads is None:
            native_threads = self.native_threads
        if engine not in ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        samples = self._sample_input(parameter_samples)
        wire, num_samples = self._validate_wire_scales(wire_scales, samples)
        if engine == "compiled":
            return self._run_compiled(
                samples, wire, num_samples, native_threads=native_threads
            )
        return self._run_reference(samples, wire, num_samples)

    def _run_compiled(
        self,
        samples: _SampleInput,
        wire_scales: Optional[Dict[str, np.ndarray]],
        num_samples: int,
        *,
        native_threads: Optional[int],
    ) -> STAResult:
        """One pass of the compiled program, or of the reference loop
        when the native kernel is unavailable."""
        output = self.program.execute(
            num_samples,
            parameter_products=samples.products or None,
            field_rows=samples.field_rows,
            row_map=samples.row_map,
            r_scales=wire_scales.get("R") if wire_scales else None,
            c_scales=wire_scales.get("C") if wire_scales else None,
            input_slew_ps=self.library.technology.default_input_slew_ps,
            native_threads=native_threads,
        )
        if output is None:
            return self._run_reference(samples, wire_scales, num_samples)
        return STAResult(
            end_arrivals=output.end_arrivals,
            worst_delay=output.worst_delay,
            num_samples=output.num_samples,
        )

    def _run_reference(
        self,
        samples: _SampleInput,
        wire_scales: Optional[Dict[str, np.ndarray]],
        num_samples: int,
    ) -> STAResult:
        """The original per-gate Python traversal (differential baseline)."""
        u_by_gate = self._statistical_projection(samples)
        input_slew_ps = float(self.library.technology.default_input_slew_ps)
        net_col = (
            {net: i for i, net in enumerate(self.net_order())}
            if wire_scales
            else None
        )
        r_scales = wire_scales.get("R") if wire_scales else None
        c_scales = wire_scales.get("C") if wire_scales else None

        def net_load(net: str) -> Union[float, np.ndarray]:
            wire = self._wires[net]
            if c_scales is None:
                return wire.total_cap_ff
            return wire.pin_cap_ff + c_scales[:, net_col[net]] * wire.wire_cap_ff

        def pin_wire_delay(net: str, slot: int) -> Union[float, np.ndarray]:
            wire = self._wires[net]
            if net_col is None:
                return wire.sink_delay_ps[slot]
            rc_half, r_pin = wire.sink_res_cap_split[slot]
            r = 1.0 if r_scales is None else r_scales[:, net_col[net]]
            c = 1.0 if c_scales is None else c_scales[:, net_col[net]]
            return r * c * rc_half + r * r_pin

        arrival: Dict[str, np.ndarray] = {}
        slew: Dict[str, np.ndarray] = {}
        pins_left = dict(self._pin_counts)
        end_nets = set(self.levelized.end_nets)

        zero = np.zeros(num_samples)
        for net in self.netlist.primary_inputs:
            arrival[net] = zero.copy()
            slew[net] = np.full(num_samples, input_slew_ps)
        for dff in self.netlist.sequential_gates():
            model = self._models[dff.name]
            load = net_load(dff.output)
            u = u_by_gate(self._gate_index[dff.name])
            # np.full: a launch is one value when neither u nor the load
            # varies (nominal parameters, R-only wire scales), yet every
            # net's array holds all N samples.
            arrival[dff.output] = np.full(
                num_samples,
                model.nominal_delay(0.0, load) * model.statistical_scale(u),
            )
            slew[dff.output] = np.full(
                num_samples,
                model.nominal_slew(0.0, load)
                * model.statistical_slew_scale(u),
            )

        for gate in self.levelized.gates_in_order:
            model = self._models[gate.name]
            load = net_load(gate.output)
            u = u_by_gate(self._gate_index[gate.name])
            delay_scale = model.statistical_scale(u)
            slew_scale = model.statistical_slew_scale(u)

            best_arrival: Optional[np.ndarray] = None
            best_slew: Optional[np.ndarray] = None
            for pin, net in enumerate(gate.inputs):
                slot = self._sink_slot[(net, gate.name, pin)]
                wire_delay = pin_wire_delay(net, slot)
                pin_arrival = arrival[net] + wire_delay
                pin_slew = peri_slew(slew[net], wire_delay)
                gate_delay = (
                    model.nominal_delay(pin_slew, load) * delay_scale
                )
                gate_slew = (
                    model.nominal_slew(pin_slew, load) * slew_scale
                )
                candidate = pin_arrival + gate_delay
                if best_arrival is None:
                    best_arrival = candidate
                    best_slew = gate_slew
                else:
                    take = candidate > best_arrival
                    best_arrival = np.where(take, candidate, best_arrival)
                    best_slew = np.where(take, gate_slew, best_slew)
                pins_left[net] -= 1
                if pins_left[net] == 0 and net not in end_nets:
                    arrival.pop(net, None)
                    slew.pop(net, None)
            assert best_arrival is not None and best_slew is not None
            arrival[gate.output] = best_arrival
            slew[gate.output] = best_slew

        end_arrivals = {
            net: arrival[net] for net in end_nets if net in arrival
        }
        worst = np.full(num_samples, -np.inf)
        for net in self.levelized.end_nets:
            if net in end_arrivals:
                worst = np.maximum(worst, end_arrivals[net])
        return STAResult(
            end_arrivals=end_arrivals,
            worst_delay=worst,
            num_samples=num_samples,
        )

    def _sample_input(
        self,
        parameter_samples: Optional[Mapping[str, np.ndarray]],
    ) -> _SampleInput:
        """Validate parameter samples into a :class:`_SampleInput`.

        Factored samples' field rows are built here, once.
        """
        if not parameter_samples:
            return _SampleInput(1)
        num_gates = self.netlist.num_gates
        if isinstance(parameter_samples, FieldSamples):
            if parameter_samples.basis.num_gates != num_gates:
                raise ValueError(
                    f"samples must cover {num_gates} gates, got "
                    f"{parameter_samples.basis.num_gates}"
                )
            row_map = self._row_map(parameter_samples.basis)
            return _SampleInput(
                parameter_samples.num_samples,
                field_rows=parameter_samples.field_rows(row_map),
                row_map=row_map,
            )
        products: List[Tuple[np.ndarray, np.ndarray]] = []
        for name, matrix in parameter_samples.items():
            if name not in STATISTICAL_PARAMETERS:
                raise ValueError(
                    f"unknown statistical parameter {name!r}; expected a "
                    f"subset of {STATISTICAL_PARAMETERS}"
                )
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[1] != num_gates:
                raise ValueError(
                    f"samples for {name!r} must be (N, {num_gates}), "
                    f"got {matrix.shape}"
                )
            products.append(
                (matrix, self._packed_models.parameter_weights(name))
            )
        lengths = {matrix.shape[0] for matrix, _ in products}
        if len(lengths) != 1:
            raise ValueError("all parameter sample matrices must share N")
        return _SampleInput(lengths.pop(), products=tuple(products))

    def _row_map(self, basis: GateBasis) -> RowMap:
        """``basis``'s row map under this engine's weights, built once.

        Thread-safe: the service's workers share one engine and basis,
        and the first run of either builds the map.
        """
        with self._row_map_lock:
            row_map = self._row_maps.get(basis)
            if row_map is None:
                row_map = basis.row_map(
                    {
                        name: self._packed_models.parameter_weights(name)
                        for name in basis.names
                    }
                )
                self._row_maps[basis] = row_map
        return row_map

    @staticmethod
    def _statistical_projection(
        samples: _SampleInput,
    ) -> Callable[[int], np.ndarray]:
        """``u_by_gate(g)``: the rank-one projection ``u = wᵀ p`` of gate
        ``g`` over all samples, ``Σ_j w_j[g] · p_j[:, g]`` for plain
        matrices."""
        if samples.field_rows is not None:
            assert samples.row_map is not None
            return _row_reader(samples.field_rows, samples.row_map)
        if not samples.products:
            return lambda gate_index: np.zeros(1)
        num_samples, products = samples.num_samples, samples.products

        def u_by_gate(gate_index: int) -> np.ndarray:
            u = np.zeros(num_samples)
            for matrix, weights in products:
                u += weights[gate_index] * matrix[:, gate_index]
            return u

        return u_by_gate

    def _validate_wire_scales(
        self,
        wire_scales: Optional[Mapping[str, np.ndarray]],
        samples: _SampleInput,
    ) -> Tuple[Optional[Dict[str, np.ndarray]], int]:
        """Check wire-scale shapes/keys; reconcile the sample count.

        A nominal run takes its sample count from the scales; any other
        run's scale rows must match its samples.
        """
        num_samples = samples.num_samples
        if not wire_scales:
            return None, num_samples
        num_nets = len(self.netlist.nets)
        validated: Dict[str, np.ndarray] = {}
        for key, matrix in wire_scales.items():
            if key not in ("R", "C"):
                raise ValueError(
                    f"wire_scales keys must be 'R' or 'C', got {key!r}"
                )
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[1] != num_nets:
                raise ValueError(
                    f"wire_scales[{key!r}] must be (N, {num_nets}), "
                    f"got {matrix.shape}"
                )
            if not np.all(np.isfinite(matrix) & (matrix > 0.0)):
                raise ValueError(
                    f"wire_scales[{key!r}] must be finite, strictly "
                    "positive multiplicative factors (nominal = 1.0)"
                )
            validated[key] = matrix
        wire_n = {m.shape[0] for m in validated.values()}
        if len(wire_n) != 1:
            raise ValueError("all wire_scales matrices must share N")
        wire_num = wire_n.pop()
        if samples.field_rows is None and not samples.products:
            return validated, wire_num
        if wire_num != num_samples:
            raise ValueError(
                f"wire_scales N ({wire_num}) must match parameter sample "
                f"N ({num_samples})"
            )
        return validated, num_samples

    # ------------------------------------------------------------------
    # Convenience.
    # ------------------------------------------------------------------
    def nominal(self) -> STAResult:
        """Deterministic corner run (all parameters at nominal)."""
        return self.run(None)

    def critical_end_net(self) -> str:
        """The end point with the worst nominal arrival."""
        result = self.nominal()
        return max(
            result.end_arrivals, key=lambda net: float(result.end_arrivals[net][0])
        )


def _row_reader(
    field_rows: np.ndarray, row_map: RowMap
) -> Callable[[int], np.ndarray]:
    """Per-gate ``u`` from field rows: ``Σ_k weight[k, g] · R[index[k, g]]``
    for k = 0 … P−1 in the kernel's order."""
    index, weight = row_map.index, row_map.weight

    def u_by_gate(gate_index: int) -> np.ndarray:
        u = weight[0, gate_index] * field_rows[index[0, gate_index]]
        for k in range(1, index.shape[0]):
            u += weight[k, gate_index] * field_rows[index[k, gate_index]]
        return u

    return u_by_gate
