"""Property-based equivalence tests between the simulator backends.

The big-int and numpy backends of :class:`ZeroDelaySimulator` must be
indistinguishable: identical net values, identical transition counts and
identical RNG consumption for every circuit, width and stimulus.  These
properties are what allows ``backend="auto"`` to pick the numpy engine at
every width (and bigint without a C compiler) without changing any
estimation result.  Every test names both backends explicitly: bigint is the
reference oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.generators import SyntheticCircuitSpec, generate_sequential_circuit
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stimulus.random_inputs import BernoulliStimulus


def _build_circuit(spec_seed: int) -> CompiledCircuit:
    rng = np.random.default_rng(spec_seed)
    spec = SyntheticCircuitSpec(
        name=f"prop{spec_seed}",
        num_inputs=int(rng.integers(1, 7)),
        num_outputs=int(rng.integers(1, 4)),
        num_latches=int(rng.integers(1, 7)),
        num_gates=int(rng.integers(25, 70)),
    )
    return CompiledCircuit.from_netlist(generate_sequential_circuit(spec, seed=spec_seed))


@settings(max_examples=25, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=2**31 - 1),
    width=st.integers(min_value=1, max_value=192),
    run_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_backends_bit_identical_on_random_netlists(spec_seed, width, run_seed):
    """Both backends produce identical net values and transition counts."""
    circuit = _build_circuit(spec_seed)
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)

    bigint = ZeroDelaySimulator(circuit, width=width, backend="bigint")
    vector = ZeroDelaySimulator(circuit, width=width, backend="numpy")
    bigint.randomize_state(rng=run_seed)
    vector.randomize_state(rng=run_seed)
    assert bigint.latch_state() == vector.latch_state()

    rng_a = np.random.default_rng(run_seed + 1)
    rng_b = np.random.default_rng(run_seed + 1)
    bigint.settle(stimulus.next_pattern(rng_a, width=width))
    vector.settle(stimulus.next_pattern_words(rng_b, width=width))
    assert bigint.values == vector.values

    for _ in range(6):
        counts_a = bigint.step_and_count(stimulus.next_pattern(rng_a, width=width))
        counts_b = vector.step_and_count(stimulus.next_pattern_words(rng_b, width=width))
        assert counts_a == counts_b
        assert bigint.values == vector.values


@settings(max_examples=15, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=2**31 - 1),
    width=st.integers(min_value=1, max_value=192),
    run_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lane_resolved_measurement_agrees(spec_seed, width, run_seed):
    """Per-lane switched capacitance agrees between the backends."""
    circuit = _build_circuit(spec_seed)
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)

    bigint = ZeroDelaySimulator(circuit, width=width, backend="bigint")
    vector = ZeroDelaySimulator(circuit, width=width, backend="numpy")
    bigint.randomize_state(rng=run_seed)
    vector.randomize_state(rng=run_seed)

    rng_a = np.random.default_rng(run_seed)
    rng_b = np.random.default_rng(run_seed)
    for _ in range(4):
        lanes_a = bigint.step_and_measure_lanes(stimulus.next_pattern(rng_a, width=width))
        lanes_b = vector.step_and_measure_lanes(stimulus.next_pattern_words(rng_b, width=width))
        assert np.array_equal(lanes_b, lanes_a)
        total = vector.step_and_measure(stimulus.next_pattern_words(rng_b, width=width))
        total_a = bigint.step_and_measure(stimulus.next_pattern(rng_a, width=width))
        assert total == total_a


@settings(max_examples=10, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=2**31 - 1),
    sample_seed=st.integers(min_value=0, max_value=2**31 - 1),
    interval=st.integers(min_value=0, max_value=4),
    power_simulator=st.sampled_from(["zero-delay", "event-driven"]),
)
def test_single_chain_sampler_backends_bit_identical(
    spec_seed, sample_seed, interval, power_simulator
):
    """The 1-chain sampler gives the same samples on the bigint and numpy engines."""
    circuit = _build_circuit(spec_seed)
    config = EstimationConfig(warmup_cycles=8, power_simulator=power_simulator)
    samplers = [
        BatchPowerSampler(
            circuit,
            BernoulliStimulus(circuit.num_inputs, 0.5),
            config,
            rng=sample_seed,
            num_chains=1,
            backend=backend,
        )
        for backend in ("bigint", "numpy")
    ]
    bigint, vector = samplers
    assert bigint.collect_sequence(interval, 8) == vector.collect_sequence(interval, 8)
    expected = [float(bigint.next_samples(interval)[0]) for _ in range(20)]
    actual = [float(vector.next_samples(interval)[0]) for _ in range(20)]
    assert actual == expected
    assert vector.cycles_simulated == bigint.cycles_simulated
