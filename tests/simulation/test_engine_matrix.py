"""Cross-engine equivalence suite over the simulator registry.

Every power engine registered with
:data:`~repro.api.registry.SIMULATOR_REGISTRY` must satisfy the chain-
independence contract the samplers are built on: the per-lane energies of a
width-*W* ensemble equal, lane for lane, the energies of *W* independent
width-1 runs driven by the same per-lane stimulus, for any width — and the
state engine's settled latch state must agree exactly.  The suite is
parameterized over the registry, so a future registered backend is pinned
automatically the moment it registers, with no new test code.

Widths span the interesting regimes: 1 (scalar/big-int engines), a
non-aligned narrow ensemble, one full 64-lane word, and multi-word widths
with and without a partial last word (1–192, as the PR 1/PR 3 equivalence
suites established for the individual engines).
"""

import numpy as np
import pytest

from repro.api.registry import get_simulator, simulator_names
from repro.circuits.iscas89 import build_circuit
from repro.circuits.program import CircuitProgram
from repro.power.capacitance import CapacitanceModel
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stimulus.base import pack_bit_matrix

WIDTHS = (1, 3, 64, 130, 192)
CYCLES = 5


@pytest.fixture(scope="module")
def program() -> CircuitProgram:
    return CircuitProgram.of(build_circuit("s298"))


@pytest.fixture(scope="module")
def caps(program):
    return program.capacitances(CapacitanceModel())


def test_builtin_engines_are_registered():
    names = simulator_names()
    assert "zero-delay" in names
    assert "event-driven" in names
    assert "compiled" in names
    assert "event-driven-compiled" in names
    # alias resolves to the same class as the canonical name
    assert get_simulator("zero-delay-compiled") is get_simulator("compiled")


def _state_backend(name) -> str:
    """The state-engine backend a sampler would pair with simulator *name*.

    Mirrors the samplers' resolution: a registered simulator may pin the
    state backend (the compiled engines route the shared sweeps through the
    codegen kernel); otherwise the width-based auto pick applies.
    """
    return getattr(get_simulator(name), "state_backend", None) or "auto"


def _run_ensemble(name, program, caps, width, latch_bits, input_bits):
    """Drive one ensemble of *width* lanes; return (energies, latch states)."""
    state = ZeroDelaySimulator(
        program, width=width, node_capacitance=caps, backend=_state_backend(name)
    )
    power = get_simulator(name)(
        program,
        width=width,
        node_capacitance=caps,
        delay_model="type-table",
        backend="auto",
    )
    state.reset(latch_state=pack_bit_matrix(latch_bits[:, :width]))
    state.settle(pack_bit_matrix(input_bits[0][:, :width]))
    energies = np.empty((CYCLES - 1, width), dtype=np.float64)
    for step in range(1, CYCLES):
        energies[step - 1] = power.measure_lanes(
            state, pack_bit_matrix(input_bits[step][:, :width])
        )
    states = [state.latch_state_scalar(lane) for lane in range(width)]
    return energies, states


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", simulator_names())
def test_per_lane_results_match_width_one_runs(name, program, caps, width):
    """Lane *k* of a width-W ensemble == an independent width-1 run of lane *k*."""
    circuit = program.circuit
    rng = np.random.default_rng(1234 + width)
    latch_bits = rng.integers(0, 2, size=(circuit.num_latches, width), dtype=np.uint8)
    input_bits = rng.integers(
        0, 2, size=(CYCLES, circuit.num_inputs, width), dtype=np.uint8
    )

    energies, states = _run_ensemble(name, program, caps, width, latch_bits, input_bits)

    lanes = range(width) if width <= 4 else sorted({0, width // 2, width - 1})
    for lane in lanes:
        ref_energy, ref_state = _run_ensemble(
            name,
            program,
            caps,
            1,
            latch_bits[:, lane : lane + 1],
            input_bits[:, :, lane : lane + 1],
        )
        # Energies come from integer per-class toggle counts converted in one
        # fixed class order, so a lane's float is independent of the width.
        np.testing.assert_array_equal(energies[:, lane], ref_energy[:, 0])
        assert states[lane] == ref_state[0], f"latch state diverged in lane {lane}"


@pytest.mark.parametrize("name", simulator_names())
def test_measure_total_equals_lane_sum(name, program, caps):
    """measure_total is the lane-summed counterpart of measure_lanes."""
    circuit = program.circuit
    width = 96
    rng = np.random.default_rng(77)
    latch_bits = rng.integers(0, 2, size=(circuit.num_latches, width), dtype=np.uint8)
    input_bits = rng.integers(
        0, 2, size=(CYCLES, circuit.num_inputs, width), dtype=np.uint8
    )
    energies, _ = _run_ensemble(name, program, caps, width, latch_bits, input_bits)

    state = ZeroDelaySimulator(
        program, width=width, node_capacitance=caps, backend=_state_backend(name)
    )
    power = get_simulator(name)(
        program, width=width, node_capacitance=caps, delay_model="type-table"
    )
    state.reset(latch_state=pack_bit_matrix(latch_bits))
    state.settle(pack_bit_matrix(input_bits[0]))
    for step in range(1, CYCLES):
        total = power.measure_total(state, pack_bit_matrix(input_bits[step]))
        assert total == pytest.approx(energies[step - 1].sum(), rel=1e-12)
