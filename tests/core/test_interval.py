"""Unit tests for independence-interval selection."""


from repro.circuits.iscas89 import build_circuit
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.core.interval import select_independence_interval, z_statistic_profile
from repro.stimulus.random_inputs import BernoulliStimulus


def _sampler(circuit, config, rng=0):
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
    return BatchPowerSampler(circuit, stimulus, config, rng=rng, num_chains=1)


class TestSelectIndependenceInterval:
    def test_small_interval_selected_for_benchmark_circuit(self, quick_config):
        circuit = build_circuit("s298")
        config = EstimationConfig(
            randomness_sequence_length=320, warmup_cycles=32, max_independence_interval=32
        )
        sampler = _sampler(circuit, config, rng=1)
        sampler.prepare()
        selection = select_independence_interval(sampler, config)
        assert selection.converged
        assert 0 <= selection.interval <= 10
        assert selection.trials[-1].accepted

    def test_trials_increment_by_one(self, s27_circuit, quick_config):
        sampler = _sampler(s27_circuit, quick_config, rng=2)
        sampler.prepare()
        selection = select_independence_interval(sampler, quick_config)
        assert [trial.interval for trial in selection.trials] == list(
            range(selection.num_trials)
        )

    def test_cycles_accounted(self, s27_circuit, quick_config):
        sampler = _sampler(s27_circuit, quick_config, rng=3)
        sampler.prepare()
        selection = select_independence_interval(sampler, quick_config)
        expected_minimum = selection.num_trials * quick_config.randomness_sequence_length
        assert selection.cycles_simulated >= expected_minimum

    def test_non_convergence_reported(self, parity_circuit):
        # With a maximum interval of 0 the procedure cannot iterate, so unless
        # interval 0 happens to pass, converged=False must be reported; either
        # way the returned interval is within the allowed range.
        config = EstimationConfig(
            randomness_sequence_length=64, max_independence_interval=0, warmup_cycles=8
        )
        sampler = _sampler(parity_circuit, config, rng=4)
        sampler.prepare()
        selection = select_independence_interval(sampler, config)
        assert selection.interval == 0
        assert selection.num_trials == 1


class TestZStatisticProfile:
    def test_profile_covers_requested_range(self, s27_circuit, quick_config):
        sampler = _sampler(s27_circuit, quick_config, rng=5)
        sampler.prepare()
        profile = z_statistic_profile(sampler, max_interval=5, sequence_length=64)
        assert [interval for interval, _z, _accepted in profile] == list(range(6))

    def test_profile_decays_for_correlated_circuit(self):
        """|z| at interval 0 should exceed |z| at large intervals for a mixing circuit."""
        circuit = build_circuit("s298")
        config = EstimationConfig(randomness_sequence_length=512, warmup_cycles=32)
        sampler = _sampler(circuit, config, rng=6)
        sampler.prepare()
        profile = z_statistic_profile(sampler, max_interval=6, sequence_length=512)
        z_values = [abs(z) for _interval, z, _accepted in profile]
        assert z_values[0] > min(z_values[3:])
