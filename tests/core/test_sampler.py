"""Unit tests for the two-phase power sampler at one chain (the paper's flow)."""

import pytest

from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.stimulus.random_inputs import BernoulliStimulus


def _sampler(circuit, config=None, rng=0, simulator="zero-delay"):
    config = config or EstimationConfig(
        warmup_cycles=8, randomness_sequence_length=32, power_simulator=simulator
    )
    return BatchPowerSampler(
        circuit, BernoulliStimulus(circuit.num_inputs, 0.5), config, rng=rng, num_chains=1
    )


class TestPowerSampler:
    def test_stimulus_width_checked(self, s27_circuit):
        with pytest.raises(ValueError, match="stimulus drives"):
            BatchPowerSampler(s27_circuit, BernoulliStimulus(2, 0.5), EstimationConfig())

    def test_collect_sequence_length_and_sign(self, s27_circuit):
        sampler = _sampler(s27_circuit)
        sequence = sampler.collect_sequence(interval=0, length=50)
        assert len(sequence) == 50
        assert all(value >= 0.0 for value in sequence)
        assert any(value > 0.0 for value in sequence)

    def test_cycle_accounting_includes_interval(self, s27_circuit):
        sampler = _sampler(s27_circuit)
        sampler.prepare(warmup_cycles=10)
        before = sampler.cycles_simulated
        sampler.collect_sequence(interval=3, length=20)
        assert sampler.cycles_simulated - before == 20 * 4  # 3 skipped + 1 measured

    def test_next_sample_advances_interval_cycles(self, s27_circuit):
        sampler = _sampler(s27_circuit)
        sampler.prepare(warmup_cycles=0)
        before = sampler.cycles_simulated
        sampler.next_samples(interval=5)
        assert sampler.cycles_simulated - before == 6

    def test_samples_helper(self, s27_circuit):
        sampler = _sampler(s27_circuit)
        values = sampler.samples(interval=1, count=10)
        assert len(values) == 10

    def test_reproducible_given_seed(self, s27_circuit):
        first = _sampler(s27_circuit, rng=42)
        second = _sampler(s27_circuit, rng=42)
        assert first.collect_sequence(0, 30) == second.collect_sequence(0, 30)

    def test_invalid_arguments_rejected(self, s27_circuit):
        sampler = _sampler(s27_circuit)
        with pytest.raises(ValueError):
            sampler.collect_sequence(interval=-1, length=10)
        with pytest.raises(ValueError):
            sampler.collect_sequence(interval=0, length=0)
        with pytest.raises(ValueError):
            sampler.next_samples(interval=-2)
        with pytest.raises(ValueError):
            sampler.advance(-1)

    def test_event_driven_engine_counts_at_least_functional_power(self, s27_circuit):
        functional = _sampler(s27_circuit, rng=3, simulator="zero-delay")
        glitchy = _sampler(s27_circuit, rng=3, simulator="event-driven")
        functional_mean = sum(functional.collect_sequence(0, 200)) / 200
        glitchy_mean = sum(glitchy.collect_sequence(0, 200)) / 200
        assert glitchy_mean >= functional_mean - 1e-15

    def test_restart_from_random_state(self, s27_circuit):
        sampler = _sampler(s27_circuit)
        sampler.restart_from_random_state()
        (value,) = sampler.measure_cycle()
        assert value >= 0.0

    def test_prepare_is_lazy_but_automatic(self, s27_circuit):
        sampler = _sampler(s27_circuit)
        # next_samples without an explicit prepare() must still work.
        assert sampler.next_samples(interval=0)[0] >= 0.0
