"""Seeded differential fuzzer: synthetic netlists through every STA engine.

Each case draws a random netlist from :func:`generate_circuit` — from 2
to ~300 gates, DFF-free or DFF-heavy — and a sample count from
``1, B-1, B, B+1`` or a random ``N``, where ``B`` is the native block
size (shrunk to its 32-lane floor so block boundaries are cheap to
reach).  The case then runs, with ``keep_all_arrivals`` off and on:

- the per-gate reference engine (the oracle);
- the compiled engine on the numpy executor (``REPRO_NO_NATIVE=1``);
- the compiled engine on the native kernel at 1 and 2 threads, one-shot
  and chunked.

Compiled results must match the reference to ``rtol=1e-12``; native runs
must be bitwise equal across thread counts and chunkings.  The master
seed is fixed, so a failure names a reproducible case.
"""

import numpy as np
import pytest

import repro.timing.compiled as compiled
from repro.circuit.generate import generate_circuit
from repro.place.placer import place_netlist
from repro.timing import native
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)
MASTER_SEED = 20080310
NUM_CASES = 20
#: Native block size once the byte budget is shrunk to nothing.
BLOCK = 32


def _draw_cases():
    rng = np.random.default_rng(MASTER_SEED)
    counts = (1, BLOCK - 1, BLOCK, BLOCK + 1, None)
    cases = []
    for index in range(NUM_CASES):
        num_gates = int(rng.integers(2, 301))
        heavy = index % 2 == 1
        num_dffs = (
            int(rng.integers(num_gates // 4, num_gates // 2 + 1))
            if heavy and num_gates >= 4
            else 0
        )
        num_samples = counts[index % len(counts)]
        if num_samples is None:
            num_samples = int(rng.integers(2, 3 * BLOCK))
        cases.append(
            {
                "num_gates": num_gates,
                "num_dffs": num_dffs,
                "num_inputs": int(rng.integers(1, 12)),
                "num_outputs": int(rng.integers(1, 8)),
                "num_samples": num_samples,
                "seed": int(rng.integers(2**31)),
            }
        )
    return cases


CASES = _draw_cases()


def _assert_close(run, reference):
    np.testing.assert_allclose(
        run.worst_delay, reference.worst_delay, rtol=1e-12, atol=1e-9
    )
    assert set(run.end_arrivals) == set(reference.end_arrivals)
    for net, values in reference.end_arrivals.items():
        np.testing.assert_allclose(
            run.end_arrivals[net], values, rtol=1e-12, atol=1e-9
        )


def _assert_bitwise(run, base):
    assert np.array_equal(run.worst_delay, base.worst_delay)
    assert set(run.end_arrivals) == set(base.end_arrivals)
    for net, values in base.end_arrivals.items():
        assert np.array_equal(run.end_arrivals[net], values)


def test_cases_cover_the_declared_space():
    gates = [case["num_gates"] for case in CASES]
    counts = {case["num_samples"] for case in CASES}
    assert min(gates) < 20 and max(gates) > 200
    assert any(case["num_dffs"] == 0 for case in CASES)
    assert any(4 * case["num_dffs"] >= case["num_gates"] for case in CASES)
    assert {1, BLOCK - 1, BLOCK, BLOCK + 1} <= counts


@pytest.mark.parametrize(
    "case", CASES, ids=[f"case{i}" for i in range(len(CASES))]
)
def test_engines_agree_on_random_netlists(case, monkeypatch):
    monkeypatch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
    netlist = generate_circuit(
        "fuzz",
        case["num_gates"],
        case["num_inputs"],
        case["num_outputs"],
        num_dffs=case["num_dffs"],
        seed=case["seed"],
    )
    engine = STAEngine(netlist, place_netlist(netlist, DIE, seed=7))
    program = engine.program
    assert program._native_block_size(10**6, program.num_nets) == BLOCK
    num_samples = case["num_samples"]
    rng = np.random.default_rng(case["seed"])
    samples = {
        name: rng.standard_normal((num_samples, netlist.num_gates)) * 0.1
        for name in STATISTICAL_PARAMETERS
    }
    has_kernel = native.load_kernel() is not None
    for keep_all in (False, True):
        reference = engine.run(
            samples, engine="reference", keep_all_arrivals=keep_all
        )
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NO_NATIVE", "1")
            numpy_run = engine.run(
                samples, engine="compiled", keep_all_arrivals=keep_all
            )
        assert program.last_run_native is False
        _assert_close(numpy_run, reference)
        if not has_kernel:
            continue
        one = engine.run(
            samples,
            engine="compiled",
            keep_all_arrivals=keep_all,
            native_threads=1,
        )
        assert program.last_run_native is True
        _assert_close(one, reference)
        for threads, chunk_size in ((2, None), (1, 7), (2, BLOCK + 1)):
            run = engine.run(
                samples,
                engine="compiled",
                keep_all_arrivals=keep_all,
                native_threads=threads,
                chunk_size=chunk_size,
            )
            _assert_bitwise(run, one)
