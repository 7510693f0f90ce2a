"""Switching-activity collection (signal probabilities and transition densities).

The paper contrasts its direct-simulation approach with probabilistic methods
that summarise latch behaviour by signal probabilities and transition
densities.  This module measures those quantities by simulation so they can
be compared against FSM-derived values in tests and examples, and so users
can inspect which nets dominate the power of a circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.compiled import CompiledCircuit
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stimulus.base import Stimulus
from repro.utils.rng import RandomSource, spawn_rng


@dataclass
class ActivityRecord:
    """Per-net switching statistics measured over a simulation run.

    Attributes
    ----------
    circuit_name:
        Name of the measured circuit.
    cycles:
        Number of measured clock cycles.
    signal_probability:
        Fraction of cycles each net spent at logic 1.
    transition_density:
        Average number of (zero-delay) transitions per cycle for each net.
    net_names:
        Net name for each index.
    """

    circuit_name: str
    cycles: int
    signal_probability: list[float]
    transition_density: list[float]
    net_names: list[str]

    def by_name(self) -> dict[str, tuple[float, float]]:
        """Return ``{net: (signal_probability, transition_density)}``."""
        return {
            name: (self.signal_probability[i], self.transition_density[i])
            for i, name in enumerate(self.net_names)
        }

    def busiest_nets(self, count: int = 10) -> list[tuple[str, float]]:
        """Return the *count* nets with the highest transition density."""
        ranked = sorted(zip(self.net_names, self.transition_density), key=lambda item: -item[1])
        return ranked[:count]


def collect_activity(
    circuit: CompiledCircuit,
    stimulus: Stimulus,
    cycles: int,
    warmup_cycles: int = 64,
    rng: RandomSource = None,
) -> ActivityRecord:
    """Measure signal probabilities and transition densities by simulation.

    The circuit is warmed up for *warmup_cycles* (not measured) and then
    simulated for *cycles* measured clock cycles under *stimulus*.
    """
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    generator = spawn_rng(rng)
    simulator = ZeroDelaySimulator(circuit, width=1)
    simulator.randomize_state(generator)
    simulator.settle(stimulus.next_pattern(generator, width=1))

    for _ in range(warmup_cycles):
        simulator.step(stimulus.next_pattern(generator, width=1))

    ones = [0] * circuit.num_nets
    toggles = [0] * circuit.num_nets
    for _ in range(cycles):
        counts = simulator.step_and_count(stimulus.next_pattern(generator, width=1))
        values = simulator.lane_values(0)
        for net_id in range(circuit.num_nets):
            toggles[net_id] += counts[net_id]
            ones[net_id] += values[net_id]

    return ActivityRecord(
        circuit_name=circuit.name,
        cycles=cycles,
        signal_probability=[count / cycles for count in ones],
        transition_density=[count / cycles for count in toggles],
        net_names=list(circuit.net_names),
    )
