"""Level-compiled timing program: the netlist flattened for the native kernel.

The reference engine in :mod:`repro.timing.sta` is vectorized over Monte
Carlo samples but still walks the netlist gate by gate in Python: for an
ISCAS-scale circuit that is thousands of interpreter iterations, dict
lookups and small-array temporaries per run — and it dominates the
wall-clock of the paper's Table 1 / Fig. 6 experiments ahead of the
(disk-cached) eigensolve.

This module flattens the levelized netlist **once, at compile time** into
the flat tables that ``sta_kernel.c`` reads, so that
:meth:`CompiledTimingProgram.execute` evaluates every gate of a sample
block in one fused C pass (:mod:`repro.timing.native`).  The tables are
level-major, and each gate's pins are contiguous:

- per gate: fanin count, model id (a column of ``u`` and of the row
  map), output arena slot and net column, the affine model coefficients
  with the nominal load folded in (``d0 + d_load·C_total``,
  ``s0 + s_load·C_total``), the metal share of that load
  (``d_load·C_wire``, ``s_load·C_wire``) and the statistical
  coefficients ``k1, k2, m1, m2``
  (:func:`~repro.timing.library.pack_gate_models`);
- per pin: the source net's arena slot and net column, its nominal
  Elmore delay and squared Bakoglu step, and the ``R·C_wire/2`` and
  ``R·C_pin`` terms that wire R/C scales multiply
  (:func:`~repro.timing.wire.pack_wire_models`);
- per DFF: the same, for the clock→Q launch at each sequential start.

Two structural decisions set the speed:

1. **Sample blocking.**  ``execute`` streams the sample axis in blocks
   sized (``NATIVE_BLOCK_BYTE_BUDGET``) so the arenas and the block's
   statistical input stay cache-resident.  Per-sample results are
   independent, so blocked and unblocked runs are bitwise identical.
2. **Field rows built once per sample set.**  Algorithm 2 samples
   arrive factored (:class:`~repro.field.sampling.FieldSamples`), and
   the engine hands ``execute`` their field rows: a C-ordered
   ``(rows, N)`` array whose sample lanes are contiguous, built with
   one GEMM per parameter (or one in all) per generated sample set,
   plus a row map of ``P`` ``(row, weight)`` terms per gate from which
   the kernel forms each gate's ``u`` in its scale loop.  The rows are
   the paper's per-triangle fields ``D_λ ξ`` on the triangles that
   hold a gate when those are fewer than the gates (``P`` = the number
   of parameters), else one row per gate (``W ξᵀ``, ``P = 1``); no
   per-parameter ``(N, N_g)`` matrix and no ``(N, N_g)`` ``u`` exists.
   A block only moves its lane offset along the rows.  The GEMMs are
   deliberately not repeated per block: BLAS rounds an entry
   differently depending on how many columns share the call and on
   its thread count, so per-block GEMMs would tie the results to the
   block size (which depends on the kernel's thread count) and to a
   request's offset in a batched sweep.  Plain per-parameter matrices
   (Algorithm 1, hand-built dicts) are instead accumulated into a
   row-major ``u`` block by block, straight from the caller's
   matrices.

Memory: the arrival/slew arenas are indexed by *slot*, not net.  The slot
schedule is computed at compile time by simulating the traversal with
per-net refcounts (a net's slot is released after its last fanin read and
reused by later levels), so the arena width is the peak number of live
nets — the same reclamation the reference engine does with dict pops,
but with zero per-sample bookkeeping at run time.

Without the kernel (no C compiler, a failed build, ``REPRO_NO_NATIVE=1``)
``execute`` runs nothing and returns ``None``; the engine then runs its
per-gate reference loop, which is also the oracle the kernel is tested
against: results match it to floating-point reassociation error — the
test suite asserts ``rtol=1e-12`` across circuits, modes and wire
scales — and are bitwise identical at every block size and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.levelize import LevelizedCircuit
from repro.circuit.netlist import Netlist
from repro.field.sampling import RowMap
from repro.timing import native
from repro.timing.library import GateTimingModel, pack_gate_models
from repro.timing.wire import LN9, WireModel, pack_wire_models

#: Byte budget for the native kernel's per-block working set: the
#: arenas plus the block's statistical input.  The kernel reads a dense
#: ``u`` column-wise (stride ``N_g`` doubles), so the block's
#: ``(N_b, N_g)`` rows of ``u`` must stay cache-resident or every
#: element costs a full cache-line fetch; field rows are read along
#: their lanes, and gates that share a triangle share its rows.
#: Measured on s15850/N=2000 the optimum is flat across 32–128 samples
#: per block and ~35% faster than RAM-sized blocks.  With ``T`` kernel
#: threads the budget is divided by ``T``: each worker owns ``1/T`` of
#: the block's lanes plus a private scratch block, and the per-core
#: caches it runs out of don't grow with the team size.
NATIVE_BLOCK_BYTE_BUDGET = 12 * 1024 * 1024

#: A kernel argument: a table or a count.
_Table = Union[np.ndarray, int]

#: The field-row arguments of a run without field rows.
_NO_FIELD_ROWS: Dict[str, Optional[_Table]] = {
    "field_rows": None,
    "num_field_rows": 0,
    "row_stride": 0,
    "row_index": np.zeros(0, dtype=np.int64),
    "row_weight": np.zeros(0),
    "num_terms": 0,
}


@dataclass(frozen=True)
class CompiledRunOutput:
    """Raw arrays produced by one :meth:`CompiledTimingProgram.execute`."""

    end_arrivals: Dict[str, np.ndarray]
    worst_delay: np.ndarray
    num_samples: int


def _i64(values: Sequence[int]) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class CompiledTimingProgram:
    """A placed netlist compiled to the native kernel's flat tables.

    Parameters
    ----------
    netlist / levelized:
        The circuit and its topological levelization.
    models:
        Per-gate timing models in ``netlist.gates`` order.
    wires:
        Net name → precomputed :class:`~repro.timing.wire.WireModel`.
    net_order:
        Net column convention (the engine's :meth:`STAEngine.net_order`),
        shared with the ``wire_scales`` matrices.
    """

    def __init__(
        self,
        netlist: Netlist,
        levelized: LevelizedCircuit,
        models: Sequence[GateTimingModel],
        wires: Dict[str, WireModel],
        net_order: Sequence[str],
    ):
        self.netlist = netlist
        self.levelized = levelized
        self.num_nets = len(net_order)
        packed = pack_gate_models(models)
        pw = pack_wire_models(wires, net_order)
        self.num_model_gates = packed.num_gates
        net_col = {net: i for i, net in enumerate(net_order)}
        gate_row = {g.name: i for i, g in enumerate(netlist.gates)}

        # Flat per-(gate, pin) wire indices: slot k of a net's sink list
        # lives at pw.sink_offset[net_col] + k.
        pin_flat: Dict[Tuple[str, int], int] = {}
        for col, net in enumerate(net_order):
            offset = int(pw.sink_offset[col])
            for slot, (gate, pin) in enumerate(netlist.sinks_of(net)):
                pin_flat[(gate.name, pin)] = offset + slot

        level_gates: Dict[int, List] = {}
        for gate in levelized.gates_in_order:
            level_gates.setdefault(
                levelized.level_of_gate[gate.name], []
            ).append(gate)

        # --- compact slot schedule -------------------------------------
        # Reference semantics: a net's array is released once its last
        # combinational fanin pin has read it, unless it is a timing end
        # point.  Slots freed by a level's reads become reusable only at
        # the *next* level (level-barrier semantics): a level's output
        # slots then never alias a slot still being read by that level,
        # which keeps the kernel's gate-sequential evaluation valid.
        reads_left: Dict[int, int] = {}
        for gate in levelized.gates_in_order:
            for net in gate.inputs:
                col = net_col[net]
                reads_left[col] = reads_left.get(col, 0) + 1
        end_cols = {net_col[n] for n in levelized.end_nets}
        slot_of = np.full(self.num_nets, -1, dtype=np.int64)
        free_slots: List[int] = []
        slot_counter = 0

        def allocate(col: int) -> int:
            nonlocal slot_counter
            if free_slots:
                slot = free_slots.pop()
            else:
                slot = slot_counter
                slot_counter += 1
            slot_of[col] = slot
            return slot

        pi_slots = _i64([allocate(net_col[n]) for n in netlist.primary_inputs])
        dffs = netlist.sequential_gates()
        dff_cols = _i64([net_col[d.output] for d in dffs])
        dff_slots = _i64([allocate(int(c)) for c in dff_cols])

        gates: List = []
        out_slots: List[int] = []
        p_flat: List[int] = []
        p_cols: List[int] = []
        p_slots: List[int] = []
        for level in sorted(level_gates):
            pending_free: List[int] = []
            for gate in level_gates[level]:
                for pin, net in enumerate(gate.inputs):
                    col = net_col[net]
                    p_flat.append(pin_flat[(gate.name, pin)])
                    p_cols.append(col)
                    p_slots.append(int(slot_of[col]))
                    reads_left[col] -= 1
                    if reads_left[col] == 0 and col not in end_cols:
                        pending_free.append(int(slot_of[col]))
            gates.extend(level_gates[level])
            out_slots.extend(
                allocate(net_col[g.output]) for g in level_gates[level]
            )
            free_slots.extend(pending_free)
        self.num_slots = slot_counter

        def coefficients(
            prefix: str, ids: np.ndarray, cols: np.ndarray
        ) -> Dict[str, _Table]:
            """Model tables of gates ``ids`` driving net columns ``cols``."""
            d_load = packed.d_load[ids]
            s_load = packed.s_load[ids]
            total_cap = pw.total_cap_ff[cols]
            wire_cap = pw.wire_cap_ff[cols]
            return {
                f"{prefix}_bd": packed.d0[ids] + d_load * total_cap,
                f"{prefix}_bs": packed.s0[ids] + s_load * total_cap,
                f"{prefix}_dmetal": d_load * wire_cap,
                f"{prefix}_smetal": s_load * wire_cap,
                f"{prefix}_k1": packed.k1[ids],
                f"{prefix}_k2": packed.k2[ids],
                f"{prefix}_m1": packed.m1[ids],
                f"{prefix}_m2": packed.m2[ids],
            }

        g_id = _i64([gate_row[g.name] for g in gates])
        g_col = _i64([net_col[g.output] for g in gates])
        dff_gids = _i64([gate_row[d.name] for d in dffs])
        flat = _i64(p_flat)
        p_col = _i64(p_cols)
        wire_delay = pw.sink_delay_ps[flat]
        step = LN9 * wire_delay
        #: Block-invariant kernel arguments, by C parameter name.
        self._tables: Dict[str, _Table] = {
            "num_pi": pi_slots.size,
            "dff_gids": dff_gids,
            "dff_col": dff_cols,
            **coefficients("dff", dff_gids, dff_cols),
            "num_dff": dff_cols.size,
            "num_gates": g_id.size,
            "g_fanin": _i64([g.num_inputs for g in gates]),
            "g_id": g_id,
            "g_col": g_col,
            "g_dsl": packed.d_slew[g_id],
            "g_ssl": packed.s_slew[g_id],
            **coefficients("g", g_id, g_col),
            "p_col": p_col,
            "p_wd": wire_delay,
            "p_step2": step * step,
            "p_rc": pw.sink_rc_half[flat],
            "p_rpin": pw.sink_r_pin[flat],
            "pi_slots": pi_slots,
            "dff_slots": dff_slots,
            "g_out_slot": _i64(out_slots),
            "p_slot": _i64(p_slots),
        }
        #: Whether the most recent :meth:`execute` used the native
        #: kernel (for benchmark reporting); ``None`` before any run.
        self.last_run_native: Optional[bool] = None
        # Unique end nets, first-appearance order (matches the reference
        # result dict, which deduplicates implicitly).
        unique_ends = list(dict.fromkeys(levelized.end_nets))
        self._end_names = unique_ends
        self._end_slots = slot_of[_i64([net_col[n] for n in unique_ends])]

    def resident_bytes(self) -> int:
        """Approximate bytes held resident by this compiled program.

        Sums the distinct numpy arrays the program owns: the kernel
        tables, its arena schedule included, and the end-point slots.
        Execution arenas and scratch are allocated per :meth:`execute`
        call and are *not* counted — this is the steady-state cost of
        keeping the artifact warm, which the service's artifact registry
        reports for eviction accounting.
        """
        values: List[object] = [self._end_slots, *self._tables.values()]
        arrays = {
            id(value): value
            for value in values
            if isinstance(value, np.ndarray)
        }
        return sum(int(array.nbytes) for array in arrays.values())

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _native_block_size(
        self, num_samples: int, width: int, threads: int = 1
    ) -> int:
        """Sample block size for the native kernel (see the budget note).

        ``threads`` divides the byte budget so each worker's share of
        the block — its lane slice of the arenas and the statistical
        input, plus its private ``6 × B`` scratch block — still fits the
        per-core cache it actually runs out of.  The input counts as
        ``2 · N_g`` doubles per sample: the dense path's ``u`` and its
        accumulator.  Field rows get the same blocks; sizing them by
        their row count instead made s9234's 2,048 triangle rows run in
        540-lane blocks, 74–78 ms a run against 61–67 ms at 130 lanes.
        """
        per_sample = 8 * (
            2 * self.num_model_gates
            + 2 * max(width, 1)
            + 6 * max(threads, 1)
            + 4
        )
        budget = NATIVE_BLOCK_BYTE_BUDGET // max(threads, 1)
        return max(32, min(num_samples, budget // per_sample))

    def native_scratch_bytes(self, threads: int = 1) -> int:
        """Transient bytes one native ``execute`` holds at ``threads``.

        The arenas, the per-worker scratch blocks, and the dense path's
        per-block ``u`` buffers for a full-sized (budget-bound) block:
        the most any block-sized buffer set takes (factored samples'
        blocks hold no ``u`` buffers, and their field rows, one run's
        ``rows × N``, are the caller's).  Not part of
        :meth:`resident_bytes` — these buffers live only for the
        duration of a run — but the service accounts them so a
        thread-count change shows up in capacity planning.
        """
        threads = max(int(threads), 1)
        width = self.num_slots
        block = self._native_block_size(
            NATIVE_BLOCK_BYTE_BUDGET, width, threads
        )
        per_block = 2 * width + 6 * threads + 2 * self.num_model_gates
        return 8 * block * per_block

    def execute(
        self,
        num_samples: int,
        *,
        parameter_products: Optional[
            Sequence[Tuple[np.ndarray, np.ndarray]]
        ] = None,
        field_rows: Optional[np.ndarray] = None,
        row_map: Optional[RowMap] = None,
        r_scales: Optional[np.ndarray] = None,
        c_scales: Optional[np.ndarray] = None,
        input_slew_ps: float,
        native_threads: Optional[int] = None,
    ) -> Optional[CompiledRunOutput]:
        """Run the compiled program for ``num_samples`` MC samples.

        Returns ``None``, having run nothing, when the native kernel is
        unavailable (:func:`~repro.timing.native.load_kernel`); the
        engine then runs its reference loop.

        Parameters
        ----------
        parameter_products:
            ``(matrix, weights)`` pairs — each an ``(N, N_g)`` sample
            matrix and its per-gate sensitivity weight column — whose
            products accumulate into the rank-one projection ``u = wᵀp``
            block by block.
        field_rows / row_map:
            Factored samples' C-ordered ``(rows, N)`` field rows, built
            once per sample set, and the
            :class:`~repro.field.sampling.RowMap` the kernel forms each
            gate's ``u`` with; each block reads its own lanes of every
            row in place.  Pass at most one of ``parameter_products``
            and ``field_rows``; neither runs a nominal analysis.
        r_scales / c_scales:
            Optional ``(N, num_nets)`` wire R/C scale matrices in
            ``net_order`` column order (already validated by the engine).
            The kernel reads C-ordered row blocks, so other layouts are
            copied once.
        input_slew_ps:
            Slew applied at primary inputs.
        native_threads:
            Worker count for the native kernel; ``None`` defers to
            ``REPRO_NATIVE_THREADS``.  Results are bitwise identical for
            every value — only speed changes.

        The arenas are flat ``(width × B)`` buffers in slot-major order,
        so partial trailing blocks simply use a shorter sample stride.
        Each block's sample lanes are partitioned across the kernel's
        workers (one runs inline on this thread), each with a private
        ``6 × B`` scratch block; per-lane arithmetic is identical under
        every partition.  The arguments are checked against
        :data:`~repro.timing.native.KERNEL_ARGS` once here, and per
        block only ``num_rows``, ``u``, the scale rows and the block's
        first lane, its lane offset into the field rows.
        """
        kernel = native.load_kernel()
        self.last_run_native = kernel is not None
        if kernel is None:
            return None
        threads = native.resolve_thread_count(native_threads)
        width = self.num_slots
        if field_rows is None:
            rows_args = _NO_FIELD_ROWS
        elif row_map is None:
            raise ValueError("field_rows need the row_map they were built for")
        else:
            rows_args = {
                "field_rows": field_rows,
                "num_field_rows": row_map.num_rows,
                "row_stride": np.shape(field_rows)[-1],
                "row_index": row_map.index,
                "row_weight": row_map.weight,
                "num_terms": row_map.index.shape[0],
            }
        block = self._native_block_size(num_samples, width, threads)
        arena_a = np.empty(width * block)
        arena_s = np.empty(width * block)
        kscratch = np.empty(6 * block * threads)
        call = native.BoundKernel(
            kernel,
            num_rows=block,
            num_model_gates=self.num_model_gates,
            **rows_args,
            num_nets=self.num_nets,
            input_slew=float(input_slew_ps),
            **self._tables,
            arena_a=arena_a,
            arena_s=arena_s,
            scratch=kscratch,
            num_threads=threads,
        )
        scales = [
            None if m is None else np.ascontiguousarray(m)
            for m in (r_scales, c_scales)
        ]
        u_buffer = tmp_buffer = None
        if parameter_products and field_rows is None:
            u_buffer = np.empty((block, self.num_model_gates))
            tmp_buffer = np.empty((block, self.num_model_gates))
        end_out = np.empty((len(self._end_names), num_samples))
        worst = np.empty(num_samples)

        for start in range(0, num_samples, block):
            stop = min(start + block, num_samples)
            rows = stop - start
            u = None
            if u_buffer is not None:
                u = u_buffer[:rows]
                tmp = tmp_buffer[:rows]
                for j, (matrix, weights) in enumerate(parameter_products):
                    if j == 0:
                        np.multiply(matrix[start:stop], weights, out=u)
                    else:
                        np.multiply(matrix[start:stop], weights, out=tmp)
                        u += tmp
            call(
                rows,
                u,
                *(None if m is None else m[start:stop] for m in scales),
                lane_offset=0 if field_rows is None else start,
            )
            arrivals = arena_a[: width * rows].reshape(width, rows)
            ends = arrivals[self._end_slots]
            if self._end_slots.size:
                np.max(ends, axis=0, out=worst[start:stop])
            else:
                worst[start:stop] = -np.inf
            end_out[:, start:stop] = ends

        return CompiledRunOutput(
            end_arrivals={
                net: end_out[i] for i, net in enumerate(self._end_names)
            },
            worst_delay=worst,
            num_samples=num_samples,
        )
