"""Tests for recursive-bisection placement."""

import hashlib

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.circuit.generate import generate_circuit
from repro.experiments import DIE_BOUNDS, PLACEMENT_SEED
from repro.place.hpwl import total_hpwl
from repro.place.placer import Placement, place_netlist

DIE = (-1.0, -1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def demo():
    return generate_circuit("demo", 300, 16, 8, seed=0)


@pytest.fixture(scope="module")
def demo_placement(demo):
    return place_netlist(demo, DIE, seed=1)


def test_all_gates_placed_inside_die(demo, demo_placement):
    locations = demo_placement.gate_locations()
    assert locations.shape == (demo.num_gates, 2)
    assert locations[:, 0].min() >= -1.0 and locations[:, 0].max() <= 1.0
    assert locations[:, 1].min() >= -1.0 and locations[:, 1].max() <= 1.0


def test_gate_locations_order_matches_netlist(demo, demo_placement):
    locations = demo_placement.gate_locations()
    for i, gate in enumerate(demo.gates):
        assert tuple(locations[i]) == demo_placement.gate_positions[gate.name]


def test_pads_on_periphery(demo, demo_placement):
    for net, (x, y) in demo_placement.pad_positions.items():
        on_border = (
            abs(abs(x) - 1.0) < 1e-9 or abs(abs(y) - 1.0) < 1e-9
        )
        assert on_border, net


def test_every_io_net_has_a_pad(demo, demo_placement):
    for net in demo.primary_inputs + demo.primary_outputs:
        assert net in demo_placement.pad_positions


def test_beats_random_placement(demo, demo_placement):
    rng = np.random.default_rng(3)
    random_positions = {
        g.name: tuple(rng.uniform(-1, 1, 2)) for g in demo.gates
    }
    random_placement = Placement(
        demo, DIE, random_positions, demo_placement.pad_positions
    )
    assert total_hpwl(demo_placement) < 0.8 * total_hpwl(random_placement)


def test_connected_gates_closer_than_average(demo, demo_placement):
    locations = {g.name: np.array(demo_placement.gate_positions[g.name])
                 for g in demo.gates}
    connected = []
    for gate in demo.gates:
        for net in gate.inputs:
            driver = demo.driver_of(net)
            if driver is not None:
                connected.append(
                    float(np.linalg.norm(locations[gate.name] - locations[driver.name]))
                )
    rng = np.random.default_rng(4)
    names = [g.name for g in demo.gates]
    random_pairs = [
        float(np.linalg.norm(locations[a] - locations[b]))
        for a, b in zip(rng.choice(names, 500), rng.choice(names, 500))
    ]
    assert np.mean(connected) < 0.6 * np.mean(random_pairs)


def test_deterministic(demo):
    a = place_netlist(demo, DIE, seed=7)
    b = place_netlist(demo, DIE, seed=7)
    assert a.gate_positions == b.gate_positions


def test_leaf_size_one(demo):
    placement = place_netlist(demo, DIE, leaf_size=1, seed=2)
    locations = placement.gate_locations()
    # With singleton leaves, positions are (almost) all distinct.
    unique = {tuple(p) for p in np.round(locations, 12)}
    assert len(unique) > 0.95 * demo.num_gates


def test_position_of_net_driver(demo, demo_placement):
    pi = demo.primary_inputs[0]
    assert demo_placement.position_of_net_driver(pi) == \
        demo_placement.pad_positions[pi]
    gate = demo.gates[0]
    assert demo_placement.position_of_net_driver(gate.output) == \
        demo_placement.gate_positions[gate.name]


def test_net_pin_positions_include_po_pad(demo, demo_placement):
    po = demo.primary_outputs[0]
    pins = demo_placement.net_pin_positions(po)
    assert demo_placement.pad_positions[po] in pins


def test_validation():
    netlist = generate_circuit("v", 10, 3, 2, seed=5)
    with pytest.raises(ValueError, match="positive-area"):
        place_netlist(netlist, (1, 0, 0, 1))
    with pytest.raises(ValueError, match="leaf_size"):
        place_netlist(netlist, DIE, leaf_size=0)


def test_custom_region():
    netlist = generate_circuit("r", 50, 6, 3, seed=6)
    placement = place_netlist(netlist, (0.0, 0.0, 10.0, 5.0), seed=0)
    locations = placement.gate_locations()
    assert locations[:, 0].max() <= 10.0
    assert locations[:, 1].max() <= 5.0
    assert locations[:, 0].min() >= 0.0


#: sha256 of ``gate_locations()`` at the experiments' seed, pinned from the
#: FM pass that kept its state in numpy arrays; cached placements and every
#: result built on them depend on these bits.
PINNED_PLACEMENTS = {
    "c880": "c500dc8393ac7ea515d548aff3dd3959a40b221ba3f285ecd07ed720990d27af",
    "c1908": "9d05361b0c9acbd1603f31a473ae1612470a858a167c786280d7fb171fac47b2",
    "c3540": "3c7b48bfd577e741a8829ee5f956575fe16de2c82070e41d4b2bbe7a3759dec6",
    "c5315": "87f502d75452f002cf21f75ce4c3d162d3cf4ef4ac8870ea6eb3eebf7bafcb00",
    "s9234": "e2989b6a5abec8912cd001f593aebf4b9f30197108699e101e9dac5840fde2e5",
}


@pytest.mark.parametrize("name", list(PINNED_PLACEMENTS))
def test_benchmark_placement_is_bitwise_pinned(name):
    placement = place_netlist(
        load_circuit(name), DIE_BOUNDS, seed=PLACEMENT_SEED
    )
    digest = hashlib.sha256(placement.gate_locations().tobytes()).hexdigest()
    assert digest == PINNED_PLACEMENTS[name]
