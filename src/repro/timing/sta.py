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
than its size.  ``run(chunk_size=...)`` additionally streams the sample
axis in bounded chunks, so paper-scale ``N = 100K`` runs never hold all
``N × N_g`` intermediates at once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist
from repro.field.sampling import FieldSamples
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
    ``projection`` is factored samples' precomputed ``u = Ξ W``.
    Neither: a nominal run.
    """

    num_samples: int
    products: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()
    projection: Optional[np.ndarray] = None

    def rows(self, start: int, stop: int) -> "_SampleInput":
        """The sample rows ``[start, stop)``."""
        return _SampleInput(
            stop - start,
            tuple((matrix[start:stop], w) for matrix, w in self.products),
            None if self.projection is None else self.projection[start:stop],
        )


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
        input_slew_ps: Optional[float] = None,
        keep_all_arrivals: bool = False,
        engine: Optional[str] = None,
        chunk_size: Optional[int] = None,
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
            :class:`~repro.field.sampling.FieldSamples` are projected
            straight to ``u = Ξ W`` (one GEMM per generated sample set,
            ``W`` formed from this engine's per-gate weights), so their
            per-parameter fields are never built; plain mappings are
            projected block by block.  ``None`` runs a nominal
            (deterministic, N = 1) analysis.
        wire_scales:
            Optional interconnect-variation extension: mapping with keys
            ``"R"`` and/or ``"C"`` to ``(N, num_nets)`` *multiplicative
            scale factors* (nominal = 1.0) on each net's metal resistance
            and capacitance, columns in :meth:`net_order` order.  Wire
            Elmore delays, slew steps, and the metal share of gate loads
            scale accordingly; device pin caps do not.  The paper varies
            only gate parameters — this extension exploits the method's
            parameter-agnosticism ("no restriction imposed by our
            technique").
        input_slew_ps:
            Slew applied at primary inputs (default: technology value).
        keep_all_arrivals:
            Keep every net's arrival array (disables memory reclamation);
            the result's ``end_arrivals`` then contains all nets.
        engine:
            Per-call override of the engine mode (``"compiled"`` or
            ``"reference"``); defaults to the constructor's choice.
        chunk_size:
            Stream the sample axis in chunks of at most this many rows:
            intermediate arenas and temporaries are bounded by
            ``chunk_size × level_width`` instead of ``N × level_width``,
            and per-chunk results are concatenated.  Factored samples are
            projected once and their ``u`` rows are chunked.  Results
            are identical to an unchunked run.
        native_threads:
            Per-call override of the native kernel's worker count
            (``None`` → the engine's :attr:`native_threads`, then
            ``REPRO_NATIVE_THREADS``).  Results are bitwise identical
            for every thread count — only wall-clock changes.
        """
        if engine is None:
            engine = self.engine
        if native_threads is None:
            native_threads = self.native_threads
        if engine not in ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if chunk_size is not None:
            chunk_size = int(chunk_size)
            if chunk_size < 1:
                raise ValueError(
                    f"chunk_size must be >= 1, got {chunk_size}"
                )
        samples = self._sample_input(parameter_samples)
        wire, num_samples = self._validate_wire_scales(
            wire_scales, samples.num_samples
        )
        if input_slew_ps is None:
            input_slew_ps = self.library.technology.default_input_slew_ps
        if chunk_size is None or num_samples <= chunk_size:
            return self._run_pass(
                engine,
                samples,
                wire,
                num_samples,
                input_slew_ps=float(input_slew_ps),
                keep_all_arrivals=keep_all_arrivals,
                native_threads=native_threads,
            )
        worst_parts: List[np.ndarray] = []
        end_parts: Dict[str, List[np.ndarray]] = {}
        for start in range(0, num_samples, chunk_size):
            stop = min(start + chunk_size, num_samples)
            part = self._run_pass(
                engine,
                samples.rows(start, stop),
                {key: value[start:stop] for key, value in wire.items()}
                if wire
                else None,
                stop - start,
                input_slew_ps=float(input_slew_ps),
                keep_all_arrivals=keep_all_arrivals,
                native_threads=native_threads,
            )
            worst_parts.append(part.worst_delay)
            for net, values in part.end_arrivals.items():
                end_parts.setdefault(net, []).append(values)
        return STAResult(
            end_arrivals={
                net: np.concatenate(parts) for net, parts in end_parts.items()
            },
            worst_delay=np.concatenate(worst_parts),
            num_samples=num_samples,
        )

    def _run_pass(
        self,
        engine: str,
        samples: _SampleInput,
        wire_scales: Optional[Dict[str, np.ndarray]],
        num_samples: int,
        *,
        input_slew_ps: float,
        keep_all_arrivals: bool,
        native_threads: Optional[int],
    ) -> STAResult:
        """One unchunked pass of the selected engine."""
        if engine == "compiled":
            return self._run_compiled(
                samples,
                wire_scales,
                num_samples,
                input_slew_ps=input_slew_ps,
                keep_all_arrivals=keep_all_arrivals,
                native_threads=native_threads,
            )
        return self._run_reference(
            samples,
            wire_scales,
            num_samples,
            input_slew_ps=input_slew_ps,
            keep_all_arrivals=keep_all_arrivals,
        )

    def _run_compiled(
        self,
        samples: _SampleInput,
        wire_scales: Optional[Dict[str, np.ndarray]],
        num_samples: int,
        *,
        input_slew_ps: float,
        keep_all_arrivals: bool,
        native_threads: Optional[int],
    ) -> STAResult:
        """One pass of the compiled program, or of the reference loop
        when the native kernel is unavailable."""
        output = self.program.execute(
            num_samples,
            parameter_products=samples.products or None,
            projection=samples.projection,
            r_scales=wire_scales.get("R") if wire_scales else None,
            c_scales=wire_scales.get("C") if wire_scales else None,
            input_slew_ps=input_slew_ps,
            keep_all_arrivals=keep_all_arrivals,
            native_threads=native_threads,
        )
        if output is None:
            return self._run_reference(
                samples,
                wire_scales,
                num_samples,
                input_slew_ps=input_slew_ps,
                keep_all_arrivals=keep_all_arrivals,
            )
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
        *,
        input_slew_ps: float,
        keep_all_arrivals: bool,
    ) -> STAResult:
        """The original per-gate Python traversal (differential baseline)."""
        _, u_by_gate = self._statistical_projection(samples)
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
            slew[net] = np.full(num_samples, float(input_slew_ps))
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
                if not keep_all_arrivals:
                    pins_left[net] -= 1
                    if pins_left[net] == 0 and net not in end_nets:
                        arrival.pop(net, None)
                        slew.pop(net, None)
            assert best_arrival is not None and best_slew is not None
            arrival[gate.output] = best_arrival
            slew[gate.output] = best_slew

        if keep_all_arrivals:
            end_arrivals = dict(arrival)
        else:
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

        Factored samples are projected here, once: ``u = Ξ W``.
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
            weights = {
                name: self._packed_models.parameter_weights(name)
                for name in parameter_samples
            }
            return _SampleInput(
                parameter_samples.num_samples,
                projection=parameter_samples.projection(weights),
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

    def _statistical_projection(
        self,
        samples: Union[_SampleInput, Mapping[str, np.ndarray], None],
    ) -> Tuple[int, Callable[[int], np.ndarray]]:
        """Return ``(N, u_by_gate)`` where ``u_by_gate(g)`` is the rank-one
        projection ``u = wᵀ p`` for gate ``g`` over all samples."""
        if not isinstance(samples, _SampleInput):
            samples = self._sample_input(samples)
        num_samples = samples.num_samples
        projection = samples.projection
        if projection is None and not samples.products:
            return 1, lambda gate_index: np.zeros(1)
        num_gates = self.netlist.num_gates

        # Fast path: precompute U = Σ_j w_j(gate) · p_j as one (N, Ng)
        # array so the hot loop only gathers columns.  Falls back to lazy
        # per-gate evaluation when the array would be too large.
        if projection is None and num_samples * num_gates * 8 <= (
            512 * 1024 * 1024
        ):
            projection = np.zeros((num_samples, num_gates))
            for matrix, weights in samples.products:
                projection += matrix * weights[None, :]
        if projection is not None:
            u_matrix = projection

            def u_by_gate(gate_index: int) -> np.ndarray:
                return u_matrix[:, gate_index]

            return num_samples, u_by_gate

        products = samples.products

        def lazy_u_by_gate(gate_index: int) -> np.ndarray:
            u = np.zeros(num_samples)
            for matrix, weights in products:
                u += weights[gate_index] * matrix[:, gate_index]
            return u

        return num_samples, lazy_u_by_gate

    def _validate_wire_scales(
        self,
        wire_scales: Optional[Mapping[str, np.ndarray]],
        num_samples: int,
    ) -> Tuple[Optional[Dict[str, np.ndarray]], int]:
        """Check wire-scale shapes/keys; reconcile the sample count."""
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
        if num_samples == 1:
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
