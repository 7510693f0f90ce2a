"""Unit tests for the event-driven general-delay simulator."""

import numpy as np
import pytest

from repro.netlist.cell_library import GateType
from repro.netlist.netlist import Netlist
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.delay_models import UnitDelay, ZeroDelay
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.zero_delay import ZeroDelaySimulator


def _glitch_circuit() -> CompiledCircuit:
    """y = AND(a, NOT(a)) — a classic static-hazard structure.

    Functionally y is always 0, so the zero-delay simulator never sees it
    switch; with unequal path delays the event-driven simulator observes a
    glitch pulse on y whenever ``a`` rises.
    """
    netlist = Netlist(name="hazard")
    netlist.add_input("a")
    netlist.add_input("dummy")
    netlist.add_output("y")
    netlist.add_latch("q", "y")
    netlist.add_gate("na", GateType.NOT, ["a"])
    netlist.add_gate("slow", GateType.BUFF, ["na"])
    netlist.add_gate("y", GateType.AND, ["a", "slow"])
    return CompiledCircuit.from_netlist(netlist)


class TestFunctionalEquivalence:
    def test_matches_zero_delay_simulator_state_trajectory(self, s27_circuit):
        """With any delay model the *settled* values must match zero-delay simulation."""
        rng = np.random.default_rng(3)
        patterns = rng.integers(0, 2, size=(30, s27_circuit.num_inputs)).tolist()

        event = EventDrivenSimulator(s27_circuit, delay_model=UnitDelay())
        reference = ZeroDelaySimulator(s27_circuit)
        event.reset(latch_state=0)
        reference.reset(latch_state=0)
        event.settle(patterns[0])
        reference.settle(patterns[0])

        for pattern in patterns[1:]:
            event.cycle(pattern)
            reference.step(pattern)
            assert event.values == reference.values

    def test_zero_delay_model_counts_match_zero_delay_simulator(self, s27_circuit):
        rng = np.random.default_rng(5)
        patterns = rng.integers(0, 2, size=(25, s27_circuit.num_inputs)).tolist()

        event = EventDrivenSimulator(s27_circuit, delay_model=ZeroDelay())
        reference = ZeroDelaySimulator(s27_circuit)
        event.reset(latch_state=0)
        reference.reset(latch_state=0)
        event.settle(patterns[0])
        reference.settle(patterns[0])

        for pattern in patterns[1:]:
            switched_event = event.cycle(pattern)
            switched_reference = reference.step_and_measure(pattern)
            assert switched_event == switched_reference


class TestGlitches:
    def test_hazard_produces_glitch_transitions(self):
        circuit = _glitch_circuit()
        simulator = EventDrivenSimulator(circuit, delay_model=UnitDelay())
        simulator.reset()
        simulator.settle([0, 0])
        switched = simulator.cycle([1, 0])  # a rises: y pulses 0 -> 1 -> 0
        y_id = circuit.net_id("y")
        assert simulator.transition_counts[y_id] == 2
        assert switched > 0
        # The settled value is still the functional value 0.
        assert simulator.values[y_id] == 0

    def test_no_glitch_with_zero_delays(self):
        circuit = _glitch_circuit()
        simulator = EventDrivenSimulator(circuit, delay_model=ZeroDelay())
        simulator.reset()
        simulator.settle([0, 0])
        simulator.cycle([1, 0])
        assert simulator.transition_counts[circuit.net_id("y")] == 0

    def test_glitch_power_at_least_functional_power(self, s27_circuit):
        """General-delay switched capacitance can only add to the functional one."""
        rng = np.random.default_rng(17)
        patterns = rng.integers(0, 2, size=(60, s27_circuit.num_inputs)).tolist()

        event = EventDrivenSimulator(s27_circuit, delay_model=UnitDelay())
        reference = ZeroDelaySimulator(s27_circuit)
        for simulator in (event, reference):
            simulator.reset(latch_state=0)
            simulator.settle(patterns[0])

        for pattern in patterns[1:]:
            glitchy = event.cycle(pattern)
            functional = reference.step_and_measure(pattern)
            assert glitchy >= functional - 1e-12


class TestInterface:
    def test_capacitance_length_checked(self, s27_circuit):
        with pytest.raises(ValueError):
            EventDrivenSimulator(s27_circuit, node_capacitance=[1.0])

    def test_pattern_length_checked(self, s27_circuit):
        simulator = EventDrivenSimulator(s27_circuit)
        simulator.settle([0, 0, 0, 0])
        with pytest.raises(ValueError):
            simulator.cycle([0, 1])

    def test_load_settled_state(self, s27_circuit):
        source = ZeroDelaySimulator(s27_circuit)
        source.reset(latch_state=0b110)
        source.settle([1, 0, 1, 0])
        simulator = EventDrivenSimulator(s27_circuit)
        simulator.load_settled_state(source.values)
        assert simulator.values == source.values
        with pytest.raises(ValueError):
            simulator.load_settled_state([0, 1])

    def test_transition_density_zero_before_simulation(self, s27_circuit):
        for backend in ("scalar", "numpy"):
            simulator = EventDrivenSimulator(s27_circuit, backend=backend)
            density = simulator.transition_density()
            assert isinstance(density, np.ndarray)
            assert density.dtype == np.float64
            assert np.array_equal(density, np.zeros(s27_circuit.num_nets))

    def test_transition_density_after_run(self, s27_circuit):
        rng = np.random.default_rng(2)
        simulator = EventDrivenSimulator(s27_circuit)
        simulator.settle([0, 0, 0, 0])
        simulator.run(rng.integers(0, 2, size=(20, 4)).tolist())
        density = simulator.transition_density()
        assert density.dtype == np.float64
        assert simulator.cycles_simulated == 20
        assert simulator.total_transitions() == pytest.approx(density.sum() * 20)

    def test_node_capacitance_accepts_numpy_array_without_copy(self, s27_circuit):
        caps = np.full(s27_circuit.num_nets, 2.5e-14)
        simulator = EventDrivenSimulator(s27_circuit, node_capacitance=caps)
        assert isinstance(simulator.node_capacitance, np.ndarray)
        assert simulator.node_capacitance is caps  # float64 input is adopted as-is
        from_list = EventDrivenSimulator(
            s27_circuit, node_capacitance=caps.tolist()
        ).node_capacitance
        assert np.array_equal(from_list, caps)

    def test_randomize_state_reproducible(self, s27_circuit):
        first = EventDrivenSimulator(s27_circuit)
        second = EventDrivenSimulator(s27_circuit)
        first.randomize_state(rng=9)
        second.randomize_state(rng=9)
        assert first.latch_state_scalar() == second.latch_state_scalar()
