"""Level-compiled array program for the vectorized STA engine.

The reference engine in :mod:`repro.timing.sta` is vectorized over Monte
Carlo samples but still walks the netlist gate by gate in Python: for an
ISCAS-scale circuit that is thousands of interpreter iterations, dict
lookups and small-array temporaries per run — and it dominates the
wall-clock of the paper's Table 1 / Fig. 6 experiments ahead of the
(disk-cached) eigensolve.

This module flattens the levelized netlist **once, at compile time** into
contiguous numpy arrays so that :meth:`CompiledTimingProgram.execute`
evaluates an entire topological level with a handful of batched array
operations:

- **gather** the level's fanin arrivals/slews from a slot arena with
  precomputed integer indices,
- **affine** delay/slew evaluation from packed per-gate model coefficient
  columns (extracted from :class:`~repro.timing.library.GateTimingModel`
  via :func:`~repro.timing.library.pack_gate_models`), broadcast over
  fanin-width groups,
- **statistical scale** via the rank-one projection ``u = wᵀp``
  (``1 + k₁u + k₂u²``, clipped like the reference), folded into the
  per-gate affine coefficients,
- **fanin max** over each gate's pins with a masked strictly-greater
  update over the fanin axis — bitwise the same winner as the reference
  loop's sequential ``if arrival > best`` update — so the output slew
  follows the winning pin,
- **scatter** the level's outputs back into the arena.

Performance comes from four structural decisions:

1. **Sample blocking.**  ``execute`` streams the sample axis in blocks
   sized (``BLOCK_BYTE_BUDGET``) so the arenas, the per-level
   temporaries and the per-block ``u`` projection all stay
   cache-resident; every sample matrix element is read from main memory
   exactly once.  Per-sample results are independent, so blocked and
   unblocked runs are bitwise identical.
2. **Fused projection.**  The ``u = Σ_j w_j p_j`` projection is
   accumulated per block straight from the caller's sample matrices —
   the full ``(N, N_g)`` projection matrix is never materialized.
3. **Fanin grouping.**  Gates within a level are reordered by fanin
   count so each group is a regular ``(N_b, G, k)`` reshape *view*
   (no ragged segments, no ``reduceat``), and per-gate coefficients
   broadcast along the fanin axis with zero gather copies.
4. **Zero allocation in the hot loop.**  A fresh >128 KiB numpy
   temporary is an ``mmap`` + page-fault round trip (~10× the cost of
   the arithmetic at these sizes), so every per-level array — pin
   temporaries, scale factors, winner masks — is a view of a scratch
   buffer allocated once per ``execute`` and every ufunc writes through
   ``out=``; gathers use ``np.take(..., out=...)``.

Memory: the arrival/slew arenas are indexed by *slot*, not net.  The slot
schedule is computed at compile time by simulating the traversal with
per-net refcounts (a net's slot is released after its last fanin read and
reused by later levels), so the arena width is the peak number of live
nets — the same reclamation the reference engine does with dict pops,
but with zero per-sample bookkeeping at run time.  ``keep_all_arrivals``
switches to an identity (net-indexed) schedule.

The wire-variation extension compiles the same way: per-pin
``R·C_wire/2`` and ``R·C_pin`` constants plus per-pin *net column*
indices turn the reference's per-pin closures into gathers from the
``(N, num_nets)`` scale matrices.

Differential testing: the statistical scale is distributed over the
affine delay coefficients (one multiply instead of three), so compiled
results match the reference to floating-point reassociation error — the
test suite asserts ``rtol=1e-12`` across circuits, modes and chunkings;
chunked and unchunked compiled runs are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.levelize import LevelizedCircuit
from repro.circuit.netlist import Netlist
from repro.timing import native
from repro.timing.library import GateTimingModel, pack_gate_models
from repro.timing.wire import LN9, WireModel, pack_wire_models

#: Byte budget for the per-block working set (the ``(N_b, N_g)``
#: projection accumulator plus both arenas).  Kept well under typical
#: last-level cache sizes so the hot loop runs out of cache instead of
#: main memory; the sample matrices themselves are streamed and never
#: counted against the budget.
BLOCK_BYTE_BUDGET = 96 * 1024 * 1024

#: Byte budget for the native kernel's per-block working set.  Much
#: tighter than the numpy budget: the kernel reads ``u`` column-wise
#: (stride ``N_g`` doubles), so the whole ``(N_b, N_g)`` projection must
#: stay cache-resident or every element costs a full cache-line fetch.
#: Measured on s15850/N=2000 the optimum is flat across 32–128 samples
#: per block and ~35% faster than RAM-sized blocks.  With ``T`` kernel
#: threads the budget is divided by ``T``: each worker owns ``1/T`` of
#: the block's lanes plus a private scratch block, and the per-core
#: caches it runs out of don't grow with the team size.
NATIVE_BLOCK_BYTE_BUDGET = 12 * 1024 * 1024


@dataclass(frozen=True)
class FaninGroup:
    """Gates of one level that share a fanin count ``k``.

    ``gate_start:gate_end`` slices the level's gate-indexed arrays;
    ``pin_start:pin_end`` slices its pin-indexed arrays, and because the
    group's pins are a contiguous run of ``(gate_end-gate_start) × k``
    entries, a pin array slice reshapes to ``(N_b, G, k)`` as a view.
    """

    fanin: int
    gate_start: int
    gate_end: int
    pin_start: int
    pin_end: int


@dataclass(frozen=True)
class CompiledLevel:
    """One topological level, flattened to contiguous arrays.

    Gate-indexed arrays have shape ``(W,)`` (level width, gates ordered
    by fanin group); pin-indexed arrays have shape ``(P,)`` (total fanin
    pins of the level, grouped per gate).
    """

    gate_ids: np.ndarray        # (W,) indices into netlist.gates (u gather)
    out_cols: np.ndarray        # (W,) net column of each gate's output
    out_slots: np.ndarray       # (W,) arena slot (compact schedule)
    groups: Tuple[FaninGroup, ...]
    pin_cols: np.ndarray        # (P,) net column of each pin's source net
    pin_slots: np.ndarray       # (P,) arena slot of the source net (compact)
    pin_gate: np.ndarray        # (P,) level-local gate position of each pin
    pin_wire_delay: np.ndarray  # (P,) nominal Elmore delay constants
    pin_step2: np.ndarray       # (P,) squared Bakoglu slew steps (ln9·t)²
    pin_rc_half: np.ndarray     # (P,) R·C_wire/2 split term
    pin_r_pin: np.ndarray       # (P,) R·C_pin split term
    pin_d_slew: np.ndarray      # (P,) d_slew of the pin's gate
    pin_s_slew: np.ndarray      # (P,) s_slew of the pin's gate
    pin_base_delay: np.ndarray  # (P,) base_delay of the pin's gate
    pin_base_slew: np.ndarray   # (P,) base_slew of the pin's gate
    d0: np.ndarray              # (W,) affine model coefficients
    d_slew: np.ndarray
    d_load: np.ndarray
    s0: np.ndarray
    s_slew: np.ndarray
    s_load: np.ndarray
    k1: np.ndarray              # (W,) statistical delay coefficients
    k2: np.ndarray
    m1: np.ndarray              # (W,) statistical slew coefficients
    m2: np.ndarray
    total_cap: np.ndarray       # (W,) nominal driver load
    pin_cap: np.ndarray         # (W,) device-pin share of the load
    wire_cap: np.ndarray        # (W,) metal share of the load
    base_delay: np.ndarray      # (W,) d0 + d_load·total_cap (nominal load)
    base_slew: np.ndarray       # (W,) s0 + s_load·total_cap


@dataclass(frozen=True)
class CompiledRunOutput:
    """Raw arrays produced by one :meth:`CompiledTimingProgram.execute`."""

    end_arrivals: Dict[str, np.ndarray]
    worst_delay: np.ndarray
    num_samples: int


def _view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Contiguous ``(rows, cols)`` view of a flat scratch buffer."""
    return buffer[: rows * cols].reshape(rows, cols)


class _Scratch:
    """Flat scratch buffers reused by every level of every sample block.

    Allocating per-level temporaries costs more than computing on them
    (>128 KiB numpy allocations are ``mmap`` + page faults), so one pool
    sized for the widest level is allocated per :meth:`execute` call and
    sliced down with :func:`_view`.  Only the leading ``rows × width``
    elements of each buffer are ever touched, so the cache footprint
    tracks the *current* level, not the widest one.
    """

    def __init__(
        self,
        block: int,
        max_pins: int,
        max_gates: int,
        *,
        statistical: bool,
        wire: bool,
    ):
        pins = block * max(max_pins, 1)
        gates = block * max(max_gates, 1)
        self.pin_a = np.empty(pins)      # pin arrival → candidate arrival
        self.pin_s = np.empty(pins)      # pin slew → delay contribution
        self.pin_d = np.empty(pins)      # wire-delay / output-slew scratch
        self.best_a = np.empty(gates)    # winning arrival per gate
        self.best_s = np.empty(gates)    # winning slew per gate
        self.mask = np.empty(gates, dtype=bool)
        if wire:
            self.pin_r = np.empty(pins)
            self.pin_c = np.empty(pins)
        if statistical or wire:
            # Pin-expanded per-sample factors (scales or scaled affine
            # coefficients) and per-gate intermediates.
            self.pin_t1 = np.empty(pins)
            self.pin_t2 = np.empty(pins)
            self.g_u = np.empty(gates)
            self.g_uu = np.empty(gates)
            self.g_t = np.empty(gates)
            self.g_scd = np.empty(gates)
            self.g_scs = np.empty(gates)
            self.g_bd = np.empty(gates)
            self.g_bs = np.empty(gates)


class CompiledTimingProgram:
    """A placed netlist compiled to per-level array operations.

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
        self.net_order = list(net_order)
        self.num_nets = len(self.net_order)
        self._packed_models = pack_gate_models(models)
        self._packed_wires = pack_wire_models(wires, self.net_order)
        net_col = {net: i for i, net in enumerate(self.net_order)}
        gate_row = {g.name: i for i, g in enumerate(netlist.gates)}

        # Flat per-(gate, pin) wire indices: slot k of a net's sink list
        # lives at packed.sink_offset[net_col] + k.
        pin_flat: Dict[Tuple[str, int], int] = {}
        pin_col: Dict[Tuple[str, int], int] = {}
        for col, net in enumerate(self.net_order):
            offset = int(self._packed_wires.sink_offset[col])
            for slot, (gate, pin) in enumerate(netlist.sinks_of(net)):
                pin_flat[(gate.name, pin)] = offset + slot
                pin_col[(gate.name, pin)] = col

        # Group the topological order into levels, preserving gate order,
        # then stably reorder each level by fanin count so every fanin
        # group is a regular (G, k) block.
        level_groups: Dict[int, List] = {}
        for gate in levelized.gates_in_order:
            level_groups.setdefault(
                levelized.level_of_gate[gate.name], []
            ).append(gate)

        # --- compact slot schedule -------------------------------------
        # Reference semantics: a net's array is released once its last
        # combinational fanin pin has read it, unless it is a timing end
        # point.  Slots freed by a level's reads become reusable only at
        # the *next* level (level-barrier semantics): a level's output
        # slots then never alias a slot still being read by that level,
        # which keeps the schedule valid both for the array path (gather
        # everything, then scatter) and for the native kernel's
        # gate-sequential evaluation.
        reads_left: Dict[int, int] = {}
        for gates in level_groups.values():
            for gate in gates:
                for net in gate.inputs:
                    col = net_col[net]
                    reads_left[col] = reads_left.get(col, 0) + 1
        end_cols = {net_col[n] for n in levelized.end_nets}
        slot_of = np.full(self.num_nets, -1, dtype=np.int64)
        free_slots: List[int] = []
        pending_free: List[int] = []
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

        pi_cols = np.array(
            [net_col[n] for n in netlist.primary_inputs], dtype=np.int64
        )
        pi_slots = np.array(
            [allocate(int(c)) for c in pi_cols], dtype=np.int64
        )

        dffs = netlist.sequential_gates()
        dff_out_cols = np.array(
            [net_col[d.output] for d in dffs], dtype=np.int64
        )
        dff_out_slots = np.array(
            [allocate(int(c)) for c in dff_out_cols], dtype=np.int64
        )
        dff_gate_ids = np.array(
            [gate_row[d.name] for d in dffs], dtype=np.int64
        )

        packed = self._packed_models
        pw = self._packed_wires
        levels: List[CompiledLevel] = []
        for level_key in sorted(level_groups):
            gates = sorted(
                level_groups[level_key], key=lambda g: g.num_inputs
            )
            gate_ids = np.array(
                [gate_row[g.name] for g in gates], dtype=np.int64
            )
            out_cols = np.array(
                [net_col[g.output] for g in gates], dtype=np.int64
            )
            flat_pins: List[int] = []
            cols: List[int] = []
            slots: List[int] = []
            groups: List[FaninGroup] = []
            for pos, gate in enumerate(gates):
                fanin = gate.num_inputs
                if not groups or groups[-1].fanin != fanin:
                    groups.append(
                        FaninGroup(fanin, pos, pos, len(flat_pins), 0)
                    )
                for pin, net in enumerate(gate.inputs):
                    key = (gate.name, pin)
                    flat_pins.append(pin_flat[key])
                    col = pin_col[key]
                    cols.append(col)
                    slots.append(int(slot_of[col]))
                    reads_left[col] -= 1
                    if reads_left[col] == 0 and col not in end_cols:
                        pending_free.append(int(slot_of[col]))
                groups[-1] = FaninGroup(
                    fanin,
                    groups[-1].gate_start,
                    pos + 1,
                    groups[-1].pin_start,
                    len(flat_pins),
                )
            out_slots = np.array(
                [allocate(int(c)) for c in out_cols], dtype=np.int64
            )
            free_slots.extend(pending_free)
            pending_free.clear()
            flat = np.array(flat_pins, dtype=np.int64)
            wire_delay = pw.sink_delay_ps[flat]
            step = LN9 * wire_delay
            total_cap = pw.total_cap_ff[out_cols]
            d0 = packed.d0[gate_ids]
            d_load = packed.d_load[gate_ids]
            s0 = packed.s0[gate_ids]
            s_load = packed.s_load[gate_ids]
            d_slew = packed.d_slew[gate_ids]
            s_slew = packed.s_slew[gate_ids]
            base_delay = d0 + d_load * total_cap
            base_slew = s0 + s_load * total_cap
            pin_gate = np.repeat(
                np.arange(len(gates), dtype=np.int64),
                [g.num_inputs for g in gates],
            )
            levels.append(
                CompiledLevel(
                    gate_ids=gate_ids,
                    out_cols=out_cols,
                    out_slots=out_slots,
                    groups=tuple(groups),
                    pin_cols=np.array(cols, dtype=np.int64),
                    pin_slots=np.array(slots, dtype=np.int64),
                    pin_gate=pin_gate,
                    pin_wire_delay=wire_delay,
                    pin_step2=step * step,
                    pin_rc_half=pw.sink_rc_half[flat],
                    pin_r_pin=pw.sink_r_pin[flat],
                    pin_d_slew=d_slew[pin_gate],
                    pin_s_slew=s_slew[pin_gate],
                    pin_base_delay=base_delay[pin_gate],
                    pin_base_slew=base_slew[pin_gate],
                    d0=d0,
                    d_slew=d_slew,
                    d_load=d_load,
                    s0=s0,
                    s_slew=s_slew,
                    s_load=s_load,
                    k1=packed.k1[gate_ids],
                    k2=packed.k2[gate_ids],
                    m1=packed.m1[gate_ids],
                    m2=packed.m2[gate_ids],
                    total_cap=total_cap,
                    pin_cap=pw.pin_cap_ff[out_cols],
                    wire_cap=pw.wire_cap_ff[out_cols],
                    base_delay=base_delay,
                    base_slew=base_slew,
                )
            )
        self.levels = levels
        self.num_slots = slot_counter
        self._pi_cols = pi_cols
        self._pi_slots = pi_slots

        # --- flattened program for the native kernel --------------------
        # Concatenate the per-level arrays in level-major, gate-major
        # order (pins grouped per gate), which is exactly the traversal
        # order of sta_kernel.c's sequential pin counter.
        def _cat(parts: List[np.ndarray], dtype: type) -> np.ndarray:
            if parts:
                return np.ascontiguousarray(
                    np.concatenate(parts).astype(dtype, copy=False)
                )
            return np.zeros(0, dtype=dtype)

        self._k_fanin = _cat(
            [
                np.bincount(lv.pin_gate, minlength=lv.gate_ids.size)
                for lv in levels
            ],
            np.int64,
        )
        self._k_out_slot = _cat([lv.out_slots for lv in levels], np.int64)
        self._k_out_col = _cat([lv.out_cols for lv in levels], np.int64)
        self._k_gid = _cat([lv.gate_ids for lv in levels], np.int64)
        self._k_bd = _cat([lv.base_delay for lv in levels], np.float64)
        self._k_dsl = _cat([lv.d_slew for lv in levels], np.float64)
        self._k_bs = _cat([lv.base_slew for lv in levels], np.float64)
        self._k_ssl = _cat([lv.s_slew for lv in levels], np.float64)
        self._k_k1 = _cat([lv.k1 for lv in levels], np.float64)
        self._k_k2 = _cat([lv.k2 for lv in levels], np.float64)
        self._k_m1 = _cat([lv.m1 for lv in levels], np.float64)
        self._k_m2 = _cat([lv.m2 for lv in levels], np.float64)
        self._k_p_slot = _cat([lv.pin_slots for lv in levels], np.int64)
        self._k_p_col = _cat([lv.pin_cols for lv in levels], np.int64)
        self._k_p_wd = _cat(
            [lv.pin_wire_delay for lv in levels], np.float64
        )
        self._k_p_step2 = _cat([lv.pin_step2 for lv in levels], np.float64)
        # Every per-gate table must have exactly one entry per scheduled
        # gate: the native kernel walks them with a single gate counter
        # bounded by num_gates == _k_fanin.size, so a shorter table is an
        # out-of-bounds read.  REPRO-SHAPE002 discharges the g_* buffer
        # obligations by unifying these sizes with the bound.
        assert self._k_out_slot.size == self._k_fanin.size
        assert self._k_out_col.size == self._k_fanin.size
        assert self._k_gid.size == self._k_fanin.size
        assert self._k_bd.size == self._k_fanin.size
        assert self._k_dsl.size == self._k_fanin.size
        assert self._k_bs.size == self._k_fanin.size
        assert self._k_ssl.size == self._k_fanin.size
        assert self._k_k1.size == self._k_fanin.size
        assert self._k_k2.size == self._k_fanin.size
        assert self._k_m1.size == self._k_fanin.size
        assert self._k_m2.size == self._k_fanin.size
        #: Whether the most recent :meth:`execute` used the native
        #: kernel (for benchmark reporting); ``None`` before any run.
        self.last_run_native: Optional[bool] = None
        self._dff_out_cols = dff_out_cols
        self._dff_out_slots = dff_out_slots
        self._dff_gate_ids = dff_gate_ids
        self._dff_d0 = packed.d0[dff_gate_ids]
        self._dff_d_load = packed.d_load[dff_gate_ids]
        self._dff_s0 = packed.s0[dff_gate_ids]
        self._dff_s_load = packed.s_load[dff_gate_ids]
        # The four sensitivity rows and the two nominal rows go straight
        # to the native kernel as POINTER(c_double) arguments, so their
        # float64/C-contiguous contract is pinned here at pack time
        # (REPRO-NATIVE001 proves it through to the ctypes boundary).
        self._dff_k1 = np.ascontiguousarray(
            packed.k1[dff_gate_ids], dtype=np.float64
        )
        self._dff_k2 = np.ascontiguousarray(
            packed.k2[dff_gate_ids], dtype=np.float64
        )
        self._dff_m1 = np.ascontiguousarray(
            packed.m1[dff_gate_ids], dtype=np.float64
        )
        self._dff_m2 = np.ascontiguousarray(
            packed.m2[dff_gate_ids], dtype=np.float64
        )
        self._dff_total_cap = pw.total_cap_ff[dff_out_cols]
        self._dff_pin_cap = pw.pin_cap_ff[dff_out_cols]
        self._dff_wire_cap = pw.wire_cap_ff[dff_out_cols]
        self._dff_dnom = np.ascontiguousarray(
            self._dff_d0 + self._dff_d_load * self._dff_total_cap,
            dtype=np.float64,
        )
        self._dff_snom = np.ascontiguousarray(
            self._dff_s0 + self._dff_s_load * self._dff_total_cap,
            dtype=np.float64,
        )
        # Unique end nets, first-appearance order (matches the reference
        # result dict, which deduplicates implicitly).
        unique_ends = list(dict.fromkeys(levelized.end_nets))
        self._end_names = unique_ends
        self._end_cols = np.array(
            [net_col[n] for n in unique_ends], dtype=np.int64
        )
        self._end_slots = slot_of[self._end_cols]

    def resident_bytes(self) -> int:
        """Approximate bytes held resident by this compiled program.

        Sums the numpy arrays owned directly by the program, its levels,
        and the packed model/wire tables.  Execution arenas and scratch
        are allocated per :meth:`execute` call and are *not* counted —
        this is the steady-state cost of keeping the artifact warm, which
        the service's artifact registry reports for eviction accounting.
        """
        total = 0
        containers: List[object] = [self, self._packed_models, self._packed_wires]
        containers.extend(self.levels)
        for container in containers:
            for value in vars(container).values():
                if isinstance(value, np.ndarray):
                    total += int(value.nbytes)
        return total

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def block_size(
        self, num_samples: int, width: Optional[int] = None
    ) -> int:
        """Cache-friendly sample block size for this circuit.

        The per-block working set is the ``u`` projection accumulator
        (``2 × N_g`` doubles per sample, with its build temporary) plus
        the two arenas (``2 × width``); per-level scratch only adds the
        current level's width on top.  The block is sized so that set
        fits in :data:`BLOCK_BYTE_BUDGET`.
        """
        if width is None:
            width = self.num_slots
        per_sample = 8 * (
            2 * self._packed_models.num_gates + 2 * max(width, 1) + 64
        )
        return max(32, min(num_samples, BLOCK_BYTE_BUDGET // per_sample))

    def _native_block_size(
        self, num_samples: int, width: int, threads: int = 1
    ) -> int:
        """Sample block size for the native kernel (see the budget note).

        ``threads`` divides the byte budget so each worker's share of
        the block — its lane slice of the arenas and ``u``, plus its
        private ``4 × B`` scratch block — still fits the per-core cache
        it actually runs out of.
        """
        per_sample = 8 * (
            2 * self._packed_models.num_gates
            + 2 * max(width, 1)
            + 4 * max(threads, 1)
            + 4
        )
        budget = NATIVE_BLOCK_BYTE_BUDGET // max(threads, 1)
        return max(32, min(num_samples, budget // per_sample))

    def native_scratch_bytes(self, threads: int = 1) -> int:
        """Transient bytes one native ``execute`` holds at ``threads``.

        The arenas, the per-worker scratch blocks, and the per-block
        ``u`` projection buffers for a full-sized (budget-bound) block.
        Not part of :meth:`resident_bytes` — these buffers live only for
        the duration of a run — but the service accounts them so a
        thread-count change shows up in capacity planning.
        """
        threads = max(int(threads), 1)
        width = self.num_slots
        block = self._native_block_size(
            NATIVE_BLOCK_BYTE_BUDGET, width, threads
        )
        num_gates = self._packed_models.num_gates
        per_block = 2 * width + 4 * threads + 2 * num_gates
        return 8 * block * per_block

    def execute(
        self,
        num_samples: int,
        *,
        parameter_products: Optional[
            Sequence[Tuple[np.ndarray, np.ndarray]]
        ] = None,
        r_scales: Optional[np.ndarray] = None,
        c_scales: Optional[np.ndarray] = None,
        input_slew_ps: float,
        keep_all_arrivals: bool = False,
        native_threads: Optional[int] = None,
    ) -> CompiledRunOutput:
        """Run the compiled program for ``num_samples`` MC samples.

        Parameters
        ----------
        parameter_products:
            ``(matrix, weights)`` pairs — each an ``(N, N_g)`` sample
            matrix and its per-gate sensitivity weight column — whose
            products accumulate into the rank-one projection ``u = wᵀp``.
            ``None`` runs a nominal analysis.
        r_scales / c_scales:
            Optional ``(N, num_nets)`` wire R/C scale matrices in
            ``net_order`` column order (already validated by the engine).
        input_slew_ps:
            Slew applied at primary inputs.
        keep_all_arrivals:
            Use the identity (net-indexed) arena so every net's arrival
            survives to the result.
        native_threads:
            Worker count for the native kernel; ``None`` defers to
            ``REPRO_NATIVE_THREADS``.  Results are bitwise identical for
            every value — only speed changes.
        """
        keep_all = bool(keep_all_arrivals)
        wire = r_scales is not None or c_scales is not None
        kernel = None if wire else native.load_kernel()
        self.last_run_native = kernel is not None
        if kernel is not None:
            return self._execute_native(
                kernel,
                num_samples,
                parameter_products,
                float(input_slew_ps),
                keep_all,
                native.resolve_thread_count(native_threads),
            )
        return self._execute_numpy(
            num_samples,
            parameter_products,
            r_scales,
            c_scales,
            float(input_slew_ps),
            keep_all,
        )

    def _drive(
        self,
        num_samples: int,
        block: int,
        parameter_products: Optional[
            Sequence[Tuple[np.ndarray, np.ndarray]]
        ],
        keep_all: bool,
        evaluate: Callable[[int, int, Optional[np.ndarray]], np.ndarray],
    ) -> CompiledRunOutput:
        """The block loop both executors share.

        Per sample block ``[start, stop)`` it accumulates the ``u``
        projection straight from the caller's sample matrices, calls
        ``evaluate(start, stop, u)`` — which returns the block's arrival
        arena as a slot-major ``(width, rows)`` view — and gathers the
        end arrivals and their worst-delay max.  Per-sample results are
        independent of the blocking, so chunked runs stay bitwise
        identical.
        """
        num_gates = self._packed_models.num_gates
        u_buffer = tmp_buffer = None
        if parameter_products:
            u_buffer = np.empty((block, num_gates))
            tmp_buffer = np.empty((block, num_gates))
        worst_idx = self._end_cols if keep_all else self._end_slots
        out_names = self.net_order if keep_all else self._end_names
        end_out = np.empty((len(out_names), num_samples))
        worst = np.empty(num_samples)

        for start in range(0, num_samples, block):
            stop = min(start + block, num_samples)
            rows = stop - start
            u = None
            if parameter_products:
                u = u_buffer[:rows]
                tmp = tmp_buffer[:rows]
                for j, (matrix, weights) in enumerate(parameter_products):
                    if j == 0:
                        np.multiply(matrix[start:stop], weights, out=u)
                    else:
                        np.multiply(matrix[start:stop], weights, out=tmp)
                        u += tmp
            arrivals = evaluate(start, stop, u)
            ends = arrivals[worst_idx]
            if worst_idx.size:
                np.max(ends, axis=0, out=worst[start:stop])
            else:
                worst[start:stop] = -np.inf
            end_out[:, start:stop] = arrivals if keep_all else ends

        end_arrivals = {
            net: end_out[i] for i, net in enumerate(out_names)
        }
        return CompiledRunOutput(
            end_arrivals=end_arrivals,
            worst_delay=worst,
            num_samples=num_samples,
        )

    def _execute_numpy(
        self,
        num_samples: int,
        parameter_products: Optional[
            Sequence[Tuple[np.ndarray, np.ndarray]]
        ],
        r_scales: Optional[np.ndarray],
        c_scales: Optional[np.ndarray],
        input_slew_ps: float,
        keep_all: bool,
    ) -> CompiledRunOutput:
        """Evaluate sample blocks level by level with numpy array ops."""
        width = self.num_nets if keep_all else self.num_slots
        block = self.block_size(num_samples, width)
        arrival = np.empty((block, width))
        slew = np.empty((block, width))
        scratch = _Scratch(
            block,
            max((lv.pin_cols.size for lv in self.levels), default=1),
            max((lv.gate_ids.size for lv in self.levels), default=1),
            statistical=bool(parameter_products),
            wire=r_scales is not None or c_scales is not None,
        )
        pi_idx = self._pi_cols if keep_all else self._pi_slots
        dff_idx = self._dff_out_cols if keep_all else self._dff_out_slots

        def evaluate(
            start: int, stop: int, u: Optional[np.ndarray]
        ) -> np.ndarray:
            rows = stop - start
            arr = arrival[:rows]
            slw = slew[:rows]
            rb = None if r_scales is None else r_scales[start:stop]
            cb = None if c_scales is None else c_scales[start:stop]
            arr[:, pi_idx] = 0.0
            slw[:, pi_idx] = input_slew_ps
            if self._dff_gate_ids.size:
                self._init_dffs(arr, slw, dff_idx, u, cb)
            for level in self.levels:
                self._execute_level(
                    level, arr, slw, u, rb, cb, keep_all, scratch
                )
            return arr.T

        return self._drive(
            num_samples, block, parameter_products, keep_all, evaluate
        )

    def _execute_native(
        self,
        kernel: Callable[..., None],
        num_samples: int,
        parameter_products: Optional[
            Sequence[Tuple[np.ndarray, np.ndarray]]
        ],
        input_slew_ps: float,
        keep_all: bool,
        threads: int,
    ) -> CompiledRunOutput:
        """Evaluate sample blocks with ``sta_kernel.c``.

        Everything between the ``u`` projection and the end gather lives
        in the kernel's fused per-gate loop.  The arenas are flat
        ``(width × B)`` buffers in slot-major order, so partial trailing
        blocks simply use a shorter sample stride.

        The block's sample lanes are partitioned across ``threads``
        kernel workers (one runs inline on this thread); each worker
        gets a private ``4 × B`` scratch block inside ``kscratch``.
        Per-lane arithmetic is identical under every partition, so
        results are bitwise independent of ``threads``.
        """
        import ctypes

        width = self.num_nets if keep_all else self.num_slots
        num_gates = self._packed_models.num_gates
        block = self._native_block_size(num_samples, width, threads)
        arena_a = np.empty(width * block)
        arena_s = np.empty(width * block)
        kscratch = np.empty(4 * block * threads)

        pi_idx = self._pi_cols if keep_all else self._pi_slots
        dff_idx = self._dff_out_cols if keep_all else self._dff_out_slots
        p_slot = self._k_p_col if keep_all else self._k_p_slot
        out_slot = self._k_out_col if keep_all else self._k_out_slot

        p_f64 = ctypes.POINTER(ctypes.c_double)
        p_i64 = ctypes.POINTER(ctypes.c_int64)

        def pd(a: np.ndarray) -> Any:
            return a.ctypes.data_as(p_f64)

        def pi(a: np.ndarray) -> Any:
            return a.ctypes.data_as(p_i64)

        def evaluate(
            start: int, stop: int, u: Optional[np.ndarray]
        ) -> np.ndarray:
            rows = stop - start
            # A no-op for `_drive`'s projection buffer; it states the
            # kernel's contract here, where the pointer is taken.
            ku = None if u is None else np.ascontiguousarray(u, np.float64)
            kernel(
                rows,
                num_gates,
                pd(ku) if ku is not None else None,
                input_slew_ps,
                pi(pi_idx),
                pi_idx.size,
                pi(dff_idx),
                pi(self._dff_gate_ids),
                pd(self._dff_dnom),
                pd(self._dff_snom),
                pd(self._dff_k1),
                pd(self._dff_k2),
                pd(self._dff_m1),
                pd(self._dff_m2),
                dff_idx.size,
                self._k_fanin.size,
                pi(self._k_fanin),
                pi(out_slot),
                pi(self._k_gid),
                pd(self._k_bd),
                pd(self._k_dsl),
                pd(self._k_bs),
                pd(self._k_ssl),
                pd(self._k_k1),
                pd(self._k_k2),
                pd(self._k_m1),
                pd(self._k_m2),
                # The kernel walks the pin tables with a running counter
                # `p` (reset per gate, bounded by the per-gate fanin it
                # just read), so cabi.py cannot derive an affine extent.
                # Hand proof: `p` advances once per pin visit and the
                # fanin table is built from the same per-level pin_gate
                # arrays the pin tables concatenate, so the final value
                # of `p` equals each table's length by construction.
                pi(p_slot),  # repro-lint: disable=REPRO-SHAPE002
                pd(self._k_p_wd),  # repro-lint: disable=REPRO-SHAPE002
                pd(self._k_p_step2),  # repro-lint: disable=REPRO-SHAPE002
                pd(arena_a),
                pd(arena_s),
                pd(kscratch),
                threads,
            )
            return arena_a[: width * rows].reshape(width, rows)

        return self._drive(
            num_samples, block, parameter_products, keep_all, evaluate
        )

    def _init_dffs(
        self,
        arr: np.ndarray,
        slw: np.ndarray,
        dff_idx: np.ndarray,
        u: Optional[np.ndarray],
        cb: Optional[np.ndarray],
    ) -> None:
        """Launch clock→Q arrivals at every sequential start point."""
        if cb is None:
            load = self._dff_total_cap
        else:
            load = self._dff_pin_cap + cb[:, self._dff_out_cols] * (
                self._dff_wire_cap
            )
        delay = self._dff_d0 + self._dff_d_load * load
        out_slew = self._dff_s0 + self._dff_s_load * load
        if u is not None:
            ud = u[:, self._dff_gate_ids]
            uu = ud * ud
            scale = 1.0 + self._dff_k1 * ud + self._dff_k2 * uu
            np.maximum(scale, 0.05, out=scale)
            delay = delay * scale
            scale = 1.0 + self._dff_m1 * ud + self._dff_m2 * uu
            np.maximum(scale, 0.05, out=scale)
            out_slew = out_slew * scale
        arr[:, dff_idx] = delay
        slw[:, dff_idx] = out_slew

    def _execute_level(
        self,
        level: CompiledLevel,
        arr: np.ndarray,
        slw: np.ndarray,
        u: Optional[np.ndarray],
        rb: Optional[np.ndarray],
        cb: Optional[np.ndarray],
        keep_all: bool,
        s: _Scratch,
    ) -> None:
        """Evaluate one topological level in place on the arenas."""
        rows = arr.shape[0]
        num_pins = level.pin_cols.size
        num_gates = level.gate_ids.size
        pin_idx = level.pin_cols if keep_all else level.pin_slots
        # Gather all fanin inputs before scattering any outputs — the
        # compile-time slot schedule relies on this ordering.
        A = _view(s.pin_a, rows, num_pins)  # pin arrival → candidate
        S = _view(s.pin_s, rows, num_pins)  # pin slew → delay term
        D = _view(s.pin_d, rows, num_pins)  # wire delay → output slew
        np.take(arr, pin_idx, axis=1, out=A, mode="clip")
        np.take(slw, pin_idx, axis=1, out=S, mode="clip")

        if rb is None and cb is None:
            np.add(A, level.pin_wire_delay, out=A)
            np.multiply(S, S, out=S)
            np.add(S, level.pin_step2, out=S)
            np.sqrt(S, out=S)
        else:
            # wire_delay = r·c·(R·C_wire/2) + r·(R·C_pin), built in D.
            if rb is not None and cb is not None:
                R = _view(s.pin_r, rows, num_pins)
                C = _view(s.pin_c, rows, num_pins)
                np.take(rb, level.pin_cols, axis=1, out=R, mode="clip")
                np.take(cb, level.pin_cols, axis=1, out=C, mode="clip")
                np.multiply(R, C, out=D)
                np.multiply(D, level.pin_rc_half, out=D)
                np.multiply(R, level.pin_r_pin, out=R)
                np.add(D, R, out=D)
            elif rb is not None:
                R = _view(s.pin_r, rows, num_pins)
                np.take(rb, level.pin_cols, axis=1, out=R, mode="clip")
                np.multiply(R, level.pin_rc_half + level.pin_r_pin, out=D)
            else:
                C = _view(s.pin_c, rows, num_pins)
                np.take(cb, level.pin_cols, axis=1, out=C, mode="clip")
                np.multiply(C, level.pin_rc_half, out=D)
                np.add(D, level.pin_r_pin, out=D)
            np.add(A, D, out=A)
            np.multiply(D, LN9, out=D)
            np.multiply(D, D, out=D)
            np.multiply(S, S, out=S)
            np.add(S, D, out=S)
            np.sqrt(S, out=S)

        # Affine delay/slew evaluation on contiguous pin-flat arrays.
        # The reference's per-gate model evaluation
        #     delay = (d0 + d_slew·slew + d_load·load) · scale
        # becomes, with compile-time pin-expanded constants,
        #     D = (S·pin_s_slew + pin_base_slew) · scs[pin_gate]
        #     S = (S·pin_d_slew + pin_base_delay) · scd[pin_gate]
        #     A += S
        # so every op is a contiguous 2-D ufunc (3-D fanin-group
        # broadcasts have a fanin-length inner loop and run ~5× slower);
        # the only per-sample gate→pin expansion is one `take` per
        # scale factor.
        statistical = u is not None
        if statistical:
            ug = _view(s.g_u, rows, num_gates)
            uu = _view(s.g_uu, rows, num_gates)
            t = _view(s.g_t, rows, num_gates)
            scd = _view(s.g_scd, rows, num_gates)
            scs = _view(s.g_scs, rows, num_gates)
            np.take(u, level.gate_ids, axis=1, out=ug, mode="clip")
            np.multiply(ug, ug, out=uu)
            np.multiply(uu, level.k2, out=scd)
            np.multiply(ug, level.k1, out=t)
            np.add(scd, t, out=scd)
            np.add(scd, 1.0, out=scd)
            np.maximum(scd, 0.05, out=scd)
            np.multiply(uu, level.m2, out=scs)
            np.multiply(ug, level.m1, out=t)
            np.add(scs, t, out=scs)
            np.add(scs, 1.0, out=scs)
            np.maximum(scs, 0.05, out=scs)
        if cb is None:
            # Output slew per pin into D (from the original pin slew),
            # then the delay contribution in place of S.
            np.multiply(S, level.pin_s_slew, out=D)
            np.add(D, level.pin_base_slew, out=D)
            np.multiply(S, level.pin_d_slew, out=S)
            np.add(S, level.pin_base_delay, out=S)
            if statistical:
                T1 = _view(s.pin_t1, rows, num_pins)
                np.take(scs, level.pin_gate, axis=1, out=T1, mode="clip")
                np.multiply(D, T1, out=D)
                np.take(scd, level.pin_gate, axis=1, out=T1, mode="clip")
                np.multiply(S, T1, out=S)
        else:
            # Per-sample loads: the base coefficients vary per gate, so
            # build (and scale) them in gate space, then pin-expand.
            load = _view(s.g_t, rows, num_gates)
            np.take(cb, level.out_cols, axis=1, out=load, mode="clip")
            np.multiply(load, level.wire_cap, out=load)
            np.add(load, level.pin_cap, out=load)
            bd = _view(s.g_bd, rows, num_gates)
            np.multiply(load, level.d_load, out=bd)
            np.add(bd, level.d0, out=bd)
            bs = _view(s.g_bs, rows, num_gates)
            np.multiply(load, level.s_load, out=bs)
            np.add(bs, level.s0, out=bs)
            T1 = _view(s.pin_t1, rows, num_pins)
            T2 = _view(s.pin_t2, rows, num_pins)
            if statistical:
                np.multiply(bd, scd, out=bd)
                np.multiply(bs, scs, out=bs)
                sld = ug    # g_u / g_uu are dead once the scales exist
                sls = uu
                np.multiply(scd, level.d_slew, out=sld)
                np.multiply(scs, level.s_slew, out=sls)
                np.take(sls, level.pin_gate, axis=1, out=T1, mode="clip")
                np.take(bs, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, T1, out=D)
                np.add(D, T2, out=D)
                np.take(sld, level.pin_gate, axis=1, out=T1, mode="clip")
                np.take(bd, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, T1, out=S)
                np.add(S, T2, out=S)
            else:
                np.take(bs, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, level.pin_s_slew, out=D)
                np.add(D, T2, out=D)
                np.take(bd, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, level.pin_d_slew, out=S)
                np.add(S, T2, out=S)
        np.add(A, S, out=A)                # candidate arrival per pin

        out_idx = level.out_cols if keep_all else level.out_slots
        for group in level.groups:
            gs, ge = group.gate_start, group.gate_end
            ps, pe = group.pin_start, group.pin_end
            k = group.fanin
            cols = out_idx[gs:ge]
            if k == 1:
                arr[:, cols] = A[:, ps:pe]
                slw[:, cols] = D[:, ps:pe]
                continue
            ng = ge - gs
            A3 = A[:, ps:pe].reshape(rows, ng, k)
            D3 = D[:, ps:pe].reshape(rows, ng, k)
            # Sequential strictly-greater update over the fanin axis —
            # bitwise the same winner (and winner slew) as the
            # reference loop.
            best_a = _view(s.best_a, rows, ng)
            best_s = _view(s.best_s, rows, ng)
            mask = _view(s.mask, rows, ng)
            np.copyto(best_a, A3[:, :, 0])
            np.copyto(best_s, D3[:, :, 0])
            for pin in range(1, k):
                np.greater(A3[:, :, pin], best_a, out=mask)
                np.copyto(best_a, A3[:, :, pin], where=mask)
                np.copyto(best_s, D3[:, :, pin], where=mask)
            arr[:, cols] = best_a
            slw[:, cols] = best_s
