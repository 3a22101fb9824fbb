"""Tests for the vectorized STA engine."""

import numpy as np
import pytest

from repro.circuit.generate import generate_circuit
from repro.circuit.netlist import Gate, Netlist
from repro.place.placer import Placement, place_netlist
from repro.timing.analysis import _nominal_pass
from repro.timing.library import STATISTICAL_PARAMETERS, CellLibrary, Technology
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)


def chain_netlist(length=3):
    gates = [Gate("g1", "NOT", ("a",), "g1")]
    for i in range(2, length + 1):
        gates.append(Gate(f"g{i}", "NOT", (f"g{i-1}",), f"g{i}"))
    return Netlist("chain", ["a"], [f"g{length}"], gates)


def centered_placement(netlist):
    positions = {g.name: (0.0, 0.0) for g in netlist.gates}
    pads = {
        net: (-1.0, 0.0)
        for net in netlist.primary_inputs + netlist.primary_outputs
    }
    return Placement(netlist, DIE, positions, pads)


@pytest.fixture(scope="module")
def c17_engine(c17):
    placement = place_netlist(c17, DIE, seed=0)
    return STAEngine(c17, placement)


def test_nominal_run_shapes(c17_engine):
    result = c17_engine.nominal()
    assert result.num_samples == 1
    assert set(result.end_arrivals) == {"22", "23"}
    assert result.worst_delay.shape == (1,)
    assert result.worst_delay[0] > 0.0


def test_worst_is_max_over_ends(c17_engine):
    result = c17_engine.nominal()
    expected = max(float(v[0]) for v in result.end_arrivals.values())
    assert float(result.worst_delay[0]) == pytest.approx(expected)


def test_chain_delay_increases_with_length():
    delays = []
    for length in (2, 4, 8):
        netlist = chain_netlist(length)
        engine = STAEngine(netlist, centered_placement(netlist))
        delays.append(engine.nominal().mean_worst_delay())
    assert delays[0] < delays[1] < delays[2]


def test_arrival_monotone_along_path(c17_engine, c17):
    arrival = _nominal_pass(c17_engine).arrival
    assert set(arrival) == set(c17.nets)
    for gate in c17.gates:
        for net in gate.inputs:
            assert arrival[gate.output] > arrival[net]


def test_statistical_run_shapes(c17_engine, c17):
    rng = np.random.default_rng(0)
    samples = {
        name: rng.standard_normal((40, c17.num_gates))
        for name in STATISTICAL_PARAMETERS
    }
    result = c17_engine.run(samples)
    assert result.num_samples == 40
    assert result.worst_delay.shape == (40,)
    assert result.std_worst_delay() > 0.0


def test_zero_samples_match_nominal(c17_engine, c17):
    """All-zero parameters must reproduce the nominal corner exactly."""
    samples = {
        name: np.zeros((3, c17.num_gates)) for name in STATISTICAL_PARAMETERS
    }
    stat = c17_engine.run(samples)
    nominal = c17_engine.nominal()
    assert np.allclose(stat.worst_delay, nominal.worst_delay[0])


def test_slow_corner_slower_than_fast_corner(c17_engine, c17):
    """u = wᵀp > 0 for p aligned with the sensitivity direction -> slower."""
    library = CellLibrary()
    direction = library.model_for("NAND", 2).direction
    slow = {
        name: np.full((1, c17.num_gates), 2.0 * direction[i])
        for i, name in enumerate(STATISTICAL_PARAMETERS)
    }
    fast = {
        name: np.full((1, c17.num_gates), -2.0 * direction[i])
        for i, name in enumerate(STATISTICAL_PARAMETERS)
    }
    nominal = c17_engine.nominal().mean_worst_delay()
    assert c17_engine.run(slow).mean_worst_delay() > nominal
    assert c17_engine.run(fast).mean_worst_delay() < nominal


def test_single_parameter_subset_allowed(c17_engine, c17):
    samples = {"L": np.random.default_rng(1).standard_normal((10, c17.num_gates))}
    result = c17_engine.run(samples)
    assert result.num_samples == 10


def test_sample_validation(c17_engine, c17):
    with pytest.raises(ValueError, match="unknown statistical parameter"):
        c17_engine.run({"Leff": np.zeros((5, c17.num_gates))})
    with pytest.raises(ValueError, match="must be"):
        c17_engine.run({"L": np.zeros((5, 3))})
    with pytest.raises(ValueError, match="share N"):
        c17_engine.run(
            {
                "L": np.zeros((5, c17.num_gates)),
                "W": np.zeros((6, c17.num_gates)),
            }
        )


def test_placement_netlist_mismatch_rejected(c17):
    other = generate_circuit("other", 10, 3, 2, seed=0)
    placement = place_netlist(other, DIE, seed=0)
    with pytest.raises(ValueError, match="does not belong"):
        STAEngine(c17, placement)


def test_input_slew_affects_delay(c17_engine, c17):
    """The primary-input slew is the technology's, on both engines."""
    for engine in ("compiled", "reference"):
        worst = [
            STAEngine(
                c17,
                c17_engine.placement,
                CellLibrary(Technology(default_input_slew_ps=slew)),
                engine=engine,
            ).nominal().mean_worst_delay()
            for slew in (10.0, 200.0)
        ]
        assert worst[1] > worst[0]


def test_sequential_circuit_dff_start_points():
    netlist = generate_circuit("seq", 120, 8, 5, num_dffs=20, seed=3)
    placement = place_netlist(netlist, DIE, seed=1)
    engine = STAEngine(netlist, placement)
    result = engine.nominal()
    # End points include the DFF data inputs.
    assert len(result.end_arrivals) >= 5
    assert result.mean_worst_delay() > 0.0


def test_output_sigma_and_mean_accessors(c17_engine, c17):
    rng = np.random.default_rng(2)
    samples = {
        name: rng.standard_normal((200, c17.num_gates))
        for name in STATISTICAL_PARAMETERS
    }
    result = c17_engine.run(samples)
    sigma = result.output_sigma()
    mean = result.output_mean()
    assert set(sigma) == set(result.end_arrivals)
    for net in sigma:
        assert sigma[net] > 0.0
        assert mean[net] > 0.0


def test_critical_end_net(c17_engine):
    critical = c17_engine.critical_end_net()
    result = c17_engine.nominal()
    assert float(result.end_arrivals[critical][0]) == pytest.approx(
        float(result.worst_delay[0])
    )


def test_spatially_correlated_samples_raise_delay_variance(c880, c880_placement):
    """Fully correlated intra-die variation widens the worst-delay
    distribution vs independent per-gate variation — the core reason SSTA
    must model spatial correlation."""
    engine = STAEngine(c880, c880_placement)
    rng = np.random.default_rng(4)
    n, g = 300, c880.num_gates
    shared = rng.standard_normal((n, 1))
    correlated = {"L": np.repeat(shared, g, axis=1)}
    independent = {"L": rng.standard_normal((n, g))}
    sigma_corr = engine.run(correlated).std_worst_delay()
    sigma_ind = engine.run(independent).std_worst_delay()
    assert sigma_corr > 2.0 * sigma_ind


def test_pi_directly_as_po():
    """A primary input declared as a primary output times at arrival 0."""
    netlist = Netlist(
        "wirecircuit", ["a"], ["a", "g1"],
        [Gate("g1", "NOT", ("a",), "g1")],
    )
    engine = STAEngine(netlist, centered_placement(netlist))
    result = engine.nominal()
    assert float(result.end_arrivals["a"][0]) == 0.0
    assert float(result.worst_delay[0]) > 0.0


def test_gate_reading_same_net_twice():
    """Duplicate input nets get distinct pin slots and wire delays."""
    netlist = Netlist(
        "dup", ["a"], ["g2"],
        [
            Gate("g1", "NOT", ("a",), "g1"),
            Gate("g2", "XOR", ("g1", "g1"), "g2"),
        ],
    )
    engine = STAEngine(netlist, centered_placement(netlist))
    result = engine.nominal()
    assert float(result.worst_delay[0]) > 0.0
    # Both pins were registered independently.
    assert ("g1", "g2", 0) in engine._sink_slot
    assert ("g1", "g2", 1) in engine._sink_slot


def test_large_sample_fallback_path_matches_fast_path(c17_engine, c17):
    """The reference loop's per-gate ``u = Σ_j w_j[g] · p_j[:, g]`` is
    bitwise the column of the ``(N, N_g)`` matrix ``Σ_j p_j · w_j``
    accumulated from zero."""
    rng = np.random.default_rng(8)
    samples = {
        name: rng.standard_normal((16, c17.num_gates))
        for name in STATISTICAL_PARAMETERS
    }
    u_by_gate = c17_engine._statistical_projection(
        c17_engine._sample_input(samples)
    )
    matrix = np.zeros((16, c17.num_gates))
    for name, values in samples.items():
        matrix += values * c17_engine._packed_models.parameter_weights(name)
    for gate in range(c17.num_gates):
        assert np.array_equal(u_by_gate(gate), matrix[:, gate])


# ---------------------------------------------------------------------------
# Interconnect-variation extension (wire R/C scale fields).
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def c17_nets(c17):
    return len(c17.nets)


def test_wire_scales_at_nominal_match_baseline(c17_engine, c17_nets):
    ones = np.ones((4, c17_nets))
    baseline = c17_engine.nominal()
    scaled = c17_engine.run(None, wire_scales={"R": ones, "C": ones})
    assert scaled.num_samples == 4
    assert np.allclose(scaled.worst_delay, baseline.worst_delay[0])


def test_wire_cap_increase_slows_circuit(c17_engine, c17_nets):
    baseline = c17_engine.nominal().mean_worst_delay()
    heavy = c17_engine.run(
        None, wire_scales={"C": np.full((1, c17_nets), 1.5)}
    ).mean_worst_delay()
    light = c17_engine.run(
        None, wire_scales={"C": np.full((1, c17_nets), 0.5)}
    ).mean_worst_delay()
    assert light < baseline < heavy


def test_wire_res_increase_slows_wires_only(c17_engine, c17_nets):
    """R scaling changes wire delay but not gate loads: smaller effect
    than C scaling, still monotone."""
    baseline = c17_engine.nominal().mean_worst_delay()
    resistive = c17_engine.run(
        None, wire_scales={"R": np.full((1, c17_nets), 2.0)}
    ).mean_worst_delay()
    assert resistive > baseline
    capacitive = c17_engine.run(
        None, wire_scales={"C": np.full((1, c17_nets), 2.0)}
    ).mean_worst_delay()
    assert capacitive - baseline > resistive - baseline


def test_wire_variation_adds_delay_variance(c880, c880_placement):
    """Spatially correlated wire-C variation widens the delay distribution
    on top of gate variation."""
    from repro.core.kernels import GaussianKernel
    from repro.field.random_field import RandomField

    engine = STAEngine(c880, c880_placement)
    rng = np.random.default_rng(9)
    gate_samples = {
        "L": rng.standard_normal((400, c880.num_gates))
    }
    gates_only = engine.run(gate_samples)
    field = RandomField(GaussianKernel(2.7))
    net_fields = field.sample(
        engine.net_driver_locations(), 400, seed=10
    )
    wire_scales = {"C": np.clip(1.0 + 0.15 * net_fields, 0.2, None)}
    combined = engine.run(gate_samples, wire_scales=wire_scales)
    assert combined.std_worst_delay() > gates_only.std_worst_delay()


def test_wire_scales_validation(c17_engine, c17_nets):
    with pytest.raises(ValueError, match="keys must be"):
        c17_engine.run(None, wire_scales={"Rw": np.ones((1, c17_nets))})
    with pytest.raises(ValueError, match="must be \\(N,"):
        c17_engine.run(None, wire_scales={"R": np.ones((1, 3))})
    with pytest.raises(ValueError, match="strictly positive"):
        c17_engine.run(None, wire_scales={"R": np.zeros((1, c17_nets))})
    with pytest.raises(ValueError, match="share N"):
        c17_engine.run(None, wire_scales={
            "R": np.ones((2, c17_nets)), "C": np.ones((3, c17_nets))
        })
    with pytest.raises(ValueError, match="must match parameter sample"):
        c17_engine.run(
            {"L": np.zeros((5, c17_engine.netlist.num_gates))},
            wire_scales={"R": np.ones((4, c17_nets))},
        )


@pytest.mark.parametrize("engine", ["compiled", "reference"])
@pytest.mark.parametrize("key", ["R", "C"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_wire_scales_are_rejected(
    c17_engine, c17_nets, engine, key, bad
):
    scales = np.ones((3, c17_nets))
    scales[1, 2] = bad
    with pytest.raises(ValueError, match=rf"wire_scales\['{key}'\].*finite"):
        c17_engine.run(None, wire_scales={key: scales}, engine=engine)


def test_net_order_and_driver_locations(c17_engine, c17):
    order = c17_engine.net_order()
    assert set(order) == set(c17.nets)
    locations = c17_engine.net_driver_locations()
    assert locations.shape == (len(order), 2)
