"""Seeded differential fuzzer: synthetic netlists through every STA engine.

Each case draws a random netlist from :func:`generate_circuit` — from 2
to ~300 gates, DFF-free or DFF-heavy — and a sample count from
``1, B-1, B, B+1`` or a random ``N``, where ``B`` is the native block
size (shrunk to its 32-lane floor so block boundaries are cheap to
reach).  The case then runs, with ``keep_all_arrivals`` off and on:

- the per-gate reference engine (the oracle);
- the compiled engine without the kernel (``REPRO_NO_NATIVE=1``), which
  must be the reference loop: bitwise equal, ``last_run_native`` False;
- the compiled engine on the native kernel at 1 and 2 threads, one-shot
  and chunked.

Native results must match the reference to ``rtol=1e-12``, and be
bitwise equal across thread counts and chunkings.  The master seed is
fixed, so a failure names a reproducible case.

A wire leg runs the same checks with wire R, C and R+C scale matrices,
some entries at the 0.05 clip floor, on statistical and nominal
parameters.

A third leg feeds factored Algorithm 2 samples
(:class:`~repro.field.sampling.FieldSamples`) built on a random ξ → gate
basis — per-parameter ``D_λ`` of rank 1 to 30 over random triangle maps,
with and without a parameter cross-correlation — and checks every engine
on them against the same samples materialized into a plain dict.
"""

import numpy as np
import pytest

import repro.timing.compiled as compiled
from repro.circuit.generate import generate_circuit
from repro.field.sampling import FieldSamples, GateBasis, ParameterBasis
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


def _fuzz_engine(case):
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
    return engine


def _check_every_engine(engine, samples, monkeypatch, oracle=None, **kwargs):
    """Run ``samples`` through every engine.

    The reference loop and the native runs must match
    ``oracle(keep_all)`` — by default the reference loop's own run — to
    ``rtol=1e-12``; the kernel-less compiled run must be the reference
    run bit for bit, and the native runs bitwise equal to each other.
    """
    program = engine.program
    for keep_all in (False, True):
        reference = engine.run(
            samples, engine="reference", keep_all_arrivals=keep_all, **kwargs
        )
        expected = reference if oracle is None else oracle(keep_all)
        _assert_close(reference, expected)
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NO_NATIVE", "1")
            fallback = engine.run(
                samples,
                engine="compiled",
                keep_all_arrivals=keep_all,
                **kwargs,
            )
            assert program.last_run_native is False
        _assert_bitwise(fallback, reference)
        if native.load_kernel() is None:
            continue
        one = engine.run(
            samples,
            engine="compiled",
            keep_all_arrivals=keep_all,
            native_threads=1,
            **kwargs,
        )
        assert program.last_run_native is True
        _assert_close(one, expected)
        for threads, chunk_size in ((2, None), (1, 7), (2, BLOCK + 1)):
            run = engine.run(
                samples,
                engine="compiled",
                keep_all_arrivals=keep_all,
                native_threads=threads,
                chunk_size=chunk_size,
                **kwargs,
            )
            _assert_bitwise(run, one)


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
    engine = _fuzz_engine(case)
    rng = np.random.default_rng(case["seed"])
    samples = {
        name: rng.standard_normal(
            (case["num_samples"], engine.netlist.num_gates)
        )
        * 0.1
        for name in STATISTICAL_PARAMETERS
    }
    _check_every_engine(engine, samples, monkeypatch)


# ----------------------------------------------------------------------
# Wire R/C scales.
# ----------------------------------------------------------------------
WIRE_SEED = 20080312
NUM_WIRE_CASES = 12
WIRE_KEYS = (("R",), ("C",), ("R", "C"))
#: The clip floor wire fields are converted with (``MonteCarloSSTA``).
SCALE_FLOOR = 0.05


def _draw_wire_cases():
    rng = np.random.default_rng(WIRE_SEED)
    counts = (1, BLOCK - 1, BLOCK, BLOCK + 1)
    cases = []
    for index in range(NUM_WIRE_CASES):
        num_gates = int(rng.integers(2, 301))
        cases.append(
            {
                "num_gates": num_gates,
                "num_dffs": (
                    int(rng.integers(num_gates // 4, num_gates // 2 + 1))
                    if index % 2 == 1 and num_gates >= 4
                    else 0
                ),
                "num_inputs": int(rng.integers(1, 12)),
                "num_outputs": int(rng.integers(1, 8)),
                "num_samples": counts[index % len(counts)],
                "keys": WIRE_KEYS[index % len(WIRE_KEYS)],
                "nominal": index % 5 == 4,
                "seed": int(rng.integers(2**31)),
            }
        )
    return cases


WIRE_CASES = _draw_wire_cases()


def test_wire_cases_cover_the_declared_space():
    assert {case["num_samples"] for case in WIRE_CASES} == {
        1, BLOCK - 1, BLOCK, BLOCK + 1
    }
    assert {case["keys"] for case in WIRE_CASES} == set(WIRE_KEYS)
    assert {case["nominal"] for case in WIRE_CASES} == {False, True}
    assert any(case["num_dffs"] for case in WIRE_CASES)


@pytest.mark.parametrize(
    "case", WIRE_CASES, ids=[f"case{i}" for i in range(len(WIRE_CASES))]
)
def test_wire_scales_agree_on_random_netlists(case, monkeypatch):
    monkeypatch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
    engine = _fuzz_engine(case)
    num_samples = case["num_samples"]
    num_nets = len(engine.net_order())
    rng = np.random.default_rng(case["seed"])
    samples = None
    if not case["nominal"]:
        samples = {
            name: rng.standard_normal((num_samples, engine.netlist.num_gates))
            * 0.1
            for name in STATISTICAL_PARAMETERS
        }
    wire_scales = {}
    for key in case["keys"]:
        scales = np.clip(
            1.0 + 0.5 * rng.standard_normal((num_samples, num_nets)),
            SCALE_FLOOR,
            None,
        )
        scales[rng.random(scales.shape) < 0.1] = SCALE_FLOOR
        scales[0, 0] = SCALE_FLOOR
        wire_scales[key] = scales
    _check_every_engine(
        engine, samples, monkeypatch, wire_scales=wire_scales
    )


# ----------------------------------------------------------------------
# Factored samples: ξ plus a random basis, against their materialized dict.
# ----------------------------------------------------------------------
FACTORED_SEED = 20080311
NUM_FACTORED_CASES = 12


def _draw_factored_cases():
    rng = np.random.default_rng(FACTORED_SEED)
    counts = (1, BLOCK - 1, BLOCK, BLOCK + 1)
    cases = []
    for index in range(NUM_FACTORED_CASES):
        num_gates = int(rng.integers(2, 301))
        num_dffs = (
            int(rng.integers(num_gates // 4, num_gates // 2 + 1))
            if index % 3 == 1 and num_gates >= 4
            else 0
        )
        cases.append(
            {
                "num_gates": num_gates,
                "num_dffs": num_dffs,
                "num_inputs": int(rng.integers(1, 12)),
                "num_outputs": int(rng.integers(1, 8)),
                "num_samples": counts[index % len(counts)],
                "cross": index % 2 == 1,
                "seed": int(rng.integers(2**31)),
            }
        )
    return cases


FACTORED_CASES = _draw_factored_cases()


def _random_basis(rng, num_gates, cross):
    """Random per-parameter ``D_λ`` (rank 1–30) over random triangle maps.

    A cross-correlated basis shares one map across the parameters (the
    separable C ⊗ K model) and mixes them by a random correlation's
    Cholesky factor.
    """

    def one_map():
        rank = int(rng.integers(1, 31))
        num_triangles = int(rng.integers(1, 61))
        d_lambda = rng.standard_normal((num_triangles, rank)) * (
            0.1 / np.sqrt(rank)
        )
        triangles = rng.integers(0, num_triangles, size=num_gates)
        return rank, d_lambda, triangles

    shared = one_map() if cross else None
    parameters = []
    offset = 0
    for name in STATISTICAL_PARAMETERS:
        rank, d_lambda, triangles = shared or one_map()
        parameters.append(
            ParameterBasis(
                name, offset, rank, d_lambda, triangles, d_lambda[triangles]
            )
        )
        offset += rank
    mix = None
    if cross:
        factor = rng.standard_normal((4, 4))
        covariance = factor @ factor.T + 0.1 * np.eye(4)
        scale = 1.0 / np.sqrt(np.diag(covariance))
        mix = np.linalg.cholesky(covariance * np.outer(scale, scale))
    return GateBasis(parameters, mix)


def test_factored_cases_cover_the_declared_space():
    assert {case["num_samples"] for case in FACTORED_CASES} == {
        1, BLOCK - 1, BLOCK, BLOCK + 1
    }
    assert {case["cross"] for case in FACTORED_CASES} == {False, True}
    assert any(case["num_dffs"] for case in FACTORED_CASES)


@pytest.mark.parametrize(
    "case",
    FACTORED_CASES,
    ids=[f"case{i}" for i in range(len(FACTORED_CASES))],
)
def test_factored_samples_agree_with_their_fields(case, monkeypatch):
    monkeypatch.setattr(compiled, "NATIVE_BLOCK_BYTE_BUDGET", 1)
    engine = _fuzz_engine(case)
    rng = np.random.default_rng(case["seed"])
    basis = _random_basis(rng, engine.netlist.num_gates, case["cross"])
    num_samples = case["num_samples"]
    samples = FieldSamples(
        basis, [rng.standard_normal((num_samples, basis.dimension))]
    )
    fields = dict(samples)
    for field in fields.values():
        assert field.shape == (num_samples, engine.netlist.num_gates)
        assert field.flags.c_contiguous

    def oracle(keep_all):
        return engine.run(
            fields, engine="reference", keep_all_arrivals=keep_all
        )

    _check_every_engine(engine, samples, monkeypatch, oracle=oracle)
