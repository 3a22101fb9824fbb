"""Seeded REPRO-SHAPE002 violations at the native kernel boundary.

Two provable under-allocations (``g_bd`` one element short of the
``num_gates`` loop bound, ``scratch`` missing the per-worker factor of
the ``4*num_rows*num_threads`` annotation) plus the three pin-table arguments left *unsuppressed* so
the checker's distinct "not statically derivable" report is exercised.
Expected findings: 2 cannot-prove + 3 not-derivable.
"""

import ctypes

import numpy as np

from repro.timing.native import load_kernel

P_F64 = ctypes.POINTER(ctypes.c_double)
P_I64 = ctypes.POINTER(ctypes.c_int64)


def evaluate(
    num_rows: int,
    num_model_gates: int,
    num_pi: int,
    num_dff: int,
    num_gates: int,
    num_pins: int,
    width: int,
    num_threads: int,
) -> None:
    kernel = load_kernel()

    pi_slots = np.zeros(num_pi, dtype=np.int64)
    dff_slots = np.zeros(num_dff, dtype=np.int64)
    dff_gids = np.zeros(num_dff, dtype=np.int64)
    dff_dnom = np.zeros(num_dff)
    dff_snom = np.zeros(num_dff)
    dff_k1 = np.zeros(num_dff)
    dff_k2 = np.zeros(num_dff)
    dff_m1 = np.zeros(num_dff)
    dff_m2 = np.zeros(num_dff)
    g_fanin = np.zeros(num_gates, dtype=np.int64)
    g_out_slot = np.zeros(num_gates, dtype=np.int64)
    g_id = np.zeros(num_gates, dtype=np.int64)
    g_bd = np.zeros(num_gates - 1)  # one short of the loop bound
    g_dsl = np.zeros(num_gates)
    g_bs = np.zeros(num_gates)
    g_ssl = np.zeros(num_gates)
    g_k1 = np.zeros(num_gates)
    g_k2 = np.zeros(num_gates)
    g_m1 = np.zeros(num_gates)
    g_m2 = np.zeros(num_gates)
    p_slot = np.zeros(num_pins, dtype=np.int64)
    p_wd = np.zeros(num_pins)
    p_step2 = np.zeros(num_pins)
    arena_a = np.zeros(num_rows * width)
    arena_s = np.zeros(num_rows * width)
    scratch = np.zeros(4 * num_rows)  # one block, not one per worker

    kernel(
        num_rows,
        num_model_gates,
        None,
        0.0,
        pi_slots.ctypes.data_as(P_I64),
        num_pi,
        dff_slots.ctypes.data_as(P_I64),
        dff_gids.ctypes.data_as(P_I64),
        dff_dnom.ctypes.data_as(P_F64),
        dff_snom.ctypes.data_as(P_F64),
        dff_k1.ctypes.data_as(P_F64),
        dff_k2.ctypes.data_as(P_F64),
        dff_m1.ctypes.data_as(P_F64),
        dff_m2.ctypes.data_as(P_F64),
        num_dff,
        num_gates,
        g_fanin.ctypes.data_as(P_I64),
        g_out_slot.ctypes.data_as(P_I64),
        g_id.ctypes.data_as(P_I64),
        g_bd.ctypes.data_as(P_F64),
        g_dsl.ctypes.data_as(P_F64),
        g_bs.ctypes.data_as(P_F64),
        g_ssl.ctypes.data_as(P_F64),
        g_k1.ctypes.data_as(P_F64),
        g_k2.ctypes.data_as(P_F64),
        g_m1.ctypes.data_as(P_F64),
        g_m2.ctypes.data_as(P_F64),
        p_slot.ctypes.data_as(P_I64),
        p_wd.ctypes.data_as(P_F64),
        p_step2.ctypes.data_as(P_F64),
        arena_a.ctypes.data_as(P_F64),
        arena_s.ctypes.data_as(P_F64),
        scratch.ctypes.data_as(P_F64),
        num_threads,
    )
