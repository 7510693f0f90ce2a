"""Unit tests for the multi-chain batch power sampler and its estimator wiring."""

import numpy as np
import pytest

from repro.core.baselines import ConsecutiveCycleEstimator, FixedWarmupEstimator
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.core.dipe import DipeEstimator
from repro.core.sampler import PowerSampler
from repro.power.reference import estimate_reference_power
from repro.stimulus.random_inputs import BernoulliStimulus


def _batch(circuit, chains=8, config=None, rng=0, backend="auto"):
    config = config or EstimationConfig(warmup_cycles=8)
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
    return BatchPowerSampler(
        circuit, stimulus, config, rng=rng, num_chains=chains, backend=backend
    )


class TestBatchPowerSampler:
    def test_invalid_arguments_rejected(self, s27_circuit):
        with pytest.raises(ValueError, match="num_chains"):
            _batch(s27_circuit, chains=0)
        with pytest.raises(ValueError, match="stimulus drives"):
            BatchPowerSampler(s27_circuit, BernoulliStimulus(2, 0.5), EstimationConfig())
        sampler = _batch(s27_circuit)
        with pytest.raises(ValueError):
            sampler.next_samples(interval=-1)
        with pytest.raises(ValueError):
            sampler.collect_sequence(interval=-1, length=10)
        with pytest.raises(ValueError):
            sampler.collect_sequence(interval=0, length=0)
        with pytest.raises(ValueError):
            sampler.advance(-1)

    def test_measure_cycle_shape_and_sign(self, s27_circuit):
        sampler = _batch(s27_circuit, chains=16)
        switched = sampler.measure_cycle()
        assert switched.shape == (16,)
        assert np.all(switched >= 0.0)

    def test_cycle_accounting(self, s27_circuit):
        sampler = _batch(s27_circuit, chains=4)
        sampler.prepare(warmup_cycles=10)
        assert sampler.cycles_simulated == 10
        sampler.next_samples(interval=3)
        assert sampler.cycles_simulated == 14
        assert sampler.chain_cycles == 14 * 4

    def test_collect_sequence_is_chain_zero_series(self, s27_circuit):
        sampler = _batch(s27_circuit, chains=8, rng=4)
        sequence = sampler.collect_sequence(interval=1, length=30)
        assert len(sequence) == 30
        assert all(value >= 0.0 for value in sequence)
        assert any(value > 0.0 for value in sequence)

    def test_samples_interleaved_across_chains(self, s27_circuit):
        sampler = _batch(s27_circuit, chains=8)
        values = sampler.samples(interval=0, count=20)
        assert len(values) == 24  # rounded up to whole batches of 8

    def test_reproducible_given_seed(self, s27_circuit):
        first = _batch(s27_circuit, chains=8, rng=42)
        second = _batch(s27_circuit, chains=8, rng=42)
        assert np.array_equal(first.next_samples(2), second.next_samples(2))

    def test_backends_agree_on_samples(self, s27_circuit):
        a = _batch(s27_circuit, chains=8, rng=7, backend="bigint")
        b = _batch(s27_circuit, chains=8, rng=7, backend="numpy")
        for _ in range(5):
            assert np.array_equal(b.next_samples(1), a.next_samples(1))

    def test_ensemble_mean_matches_single_chain_mean(self, s27_circuit):
        config = EstimationConfig(warmup_cycles=32)
        batch = _batch(s27_circuit, chains=64, config=config, rng=1)
        single = PowerSampler(
            s27_circuit, BernoulliStimulus(s27_circuit.num_inputs, 0.5), config, rng=2
        )
        batch_mean = float(np.mean([batch.next_samples(2) for _ in range(100)]))
        single_mean = float(np.mean([single.next_sample(2) for _ in range(400)]))
        assert batch_mean == pytest.approx(single_mean, rel=0.15)


class TestEstimatorWiring:
    def test_dipe_with_chains_reaches_accuracy(self, s27_circuit, quick_config):
        config = EstimationConfig(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=16,
            max_samples=4000,
            warmup_cycles=16,
            max_independence_interval=16,
            num_chains=16,
        )
        estimator = DipeEstimator(s27_circuit, config=config, rng=5)
        assert isinstance(estimator.sampler, BatchPowerSampler)
        estimate = estimator.estimate()
        assert estimate.sample_size >= config.min_samples
        assert estimate.sample_size % 16 == 0 or estimate.sample_size == config.max_samples
        assert estimate.average_power_w > 0

    def test_multi_chain_estimate_consistent_with_single_chain(self, s27_circuit):
        kwargs = dict(
            randomness_sequence_length=64,
            min_samples=128,
            check_interval=32,
            max_samples=8000,
            warmup_cycles=16,
            max_independence_interval=16,
        )
        multi = DipeEstimator(
            s27_circuit, config=EstimationConfig(num_chains=32, **kwargs), rng=9
        ).estimate()
        single = DipeEstimator(s27_circuit, config=EstimationConfig(**kwargs), rng=9).estimate()
        assert multi.average_power_w == pytest.approx(single.average_power_w, rel=0.2)

    def test_config_accepts_batch_event_driven(self):
        config = EstimationConfig(num_chains=4, power_simulator="event-driven")
        assert config.num_chains == 4
        with pytest.raises(ValueError, match="max_chains"):
            EstimationConfig(num_chains=64, adaptive_chains=True, max_chains=8)

    def test_baselines_support_chains(self, s27_circuit):
        config = EstimationConfig(
            min_samples=64, check_interval=16, max_samples=2000, warmup_cycles=8, num_chains=8
        )
        consecutive = ConsecutiveCycleEstimator(s27_circuit, config=config, rng=3).estimate()
        assert consecutive.sample_size >= 64
        fixed = FixedWarmupEstimator(
            s27_circuit, config=config, rng=3, warmup_period=10
        ).estimate()
        assert fixed.sample_size >= 64
        assert fixed.average_power_w == pytest.approx(consecutive.average_power_w, rel=0.3)

    def test_reference_backends_agree(self, s27_circuit):
        stimulus = BernoulliStimulus(s27_circuit.num_inputs, 0.5)
        bigint = estimate_reference_power(
            s27_circuit, stimulus, total_cycles=5000, lanes=64, rng=1, backend="bigint"
        )
        vector = estimate_reference_power(
            s27_circuit, stimulus, total_cycles=5000, lanes=64, rng=1, backend="numpy"
        )
        assert vector.average_power_w == bigint.average_power_w
        assert vector.total_cycles == bigint.total_cycles == 5056


class TestEventDrivenChains:
    """Multi-chain sampling composed with the glitch-aware power engine."""

    def _event_batch(self, circuit, chains, rng=0, config=None):
        config = config or EstimationConfig(warmup_cycles=8, power_simulator="event-driven")
        stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
        return BatchPowerSampler(circuit, stimulus, config, rng=rng, num_chains=chains)

    def test_event_driven_batch_shapes(self, s27_circuit):
        sampler = self._event_batch(s27_circuit, chains=16)
        switched = sampler.next_samples(interval=2)
        assert switched.shape == (16,)
        assert np.all(switched >= 0.0)

    def test_single_chain_event_batch_matches_power_sampler(self, s27_circuit):
        config = EstimationConfig(warmup_cycles=8, power_simulator="event-driven")
        single = PowerSampler(
            s27_circuit, BernoulliStimulus(s27_circuit.num_inputs, 0.5), config, rng=11
        )
        batch = self._event_batch(s27_circuit, chains=1, rng=11, config=config)
        expected = [single.next_sample(2) for _ in range(15)]
        actual = [float(batch.next_samples(2)[0]) for _ in range(15)]
        assert actual == expected

    def test_event_chains_at_least_zero_delay_chains(self, s27_circuit):
        """Glitches only add switched capacitance, chain for chain."""
        functional = _batch(
            s27_circuit, chains=32, rng=21, config=EstimationConfig(warmup_cycles=8)
        )
        glitchy = self._event_batch(s27_circuit, chains=32, rng=21)
        for _ in range(5):
            zero_delay = functional.next_samples(1)
            event = glitchy.next_samples(1)
            assert np.all(event >= zero_delay - 1e-12)

    def test_dipe_event_driven_with_chains(self, s27_circuit):
        config = EstimationConfig(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=16,
            max_samples=2000,
            warmup_cycles=8,
            max_independence_interval=8,
            num_chains=8,
            power_simulator="event-driven",
        )
        estimator = DipeEstimator(s27_circuit, config=config, rng=6)
        assert isinstance(estimator.sampler, BatchPowerSampler)
        estimate = estimator.estimate()
        assert estimate.average_power_w > 0
        assert estimate.sample_size >= 64


class TestSampleBlock:
    """The vectorized interleave must match the per-batch loop draw for draw."""

    def test_sample_block_matches_looped_draws(self, s27_circuit):
        from repro.core.batch_sampler import draw_sample_block, draw_samples

        looped = _batch(s27_circuit, chains=8, rng=13)
        blocked = _batch(s27_circuit, chains=8, rng=13)
        collected: list[float] = []
        while len(collected) < 48:
            collected.extend(draw_samples(looped, 2))
        block = draw_sample_block(blocked, 2, 48)
        assert block == collected
        assert blocked.cycles_simulated == looped.cycles_simulated
        assert all(isinstance(value, float) for value in block)

    def test_sample_block_identical_stopping_decisions(self, s27_circuit):
        """Stopping trajectories are unchanged by the vectorized interleave."""
        from repro.core.batch_sampler import draw_sample_block, draw_samples
        from repro.stats.stopping import make_stopping_criterion

        config = EstimationConfig(warmup_cycles=8)
        criterion_kwargs = dict(max_relative_error=0.1, confidence=0.95, min_samples=32)
        looped = _batch(s27_circuit, chains=8, rng=17, config=config)
        blocked = _batch(s27_circuit, chains=8, rng=17, config=config)
        crit_a = make_stopping_criterion("order-statistic", **criterion_kwargs)
        crit_b = make_stopping_criterion("order-statistic", **criterion_kwargs)

        samples_a: list[float] = []
        samples_b: list[float] = []
        for _ in range(6):
            added = 0
            while added < 16:
                batch = draw_samples(looped, 1)
                samples_a.extend(batch)
                added += len(batch)
            samples_b.extend(draw_sample_block(blocked, 1, 16))
            decision_a = crit_a.evaluate(samples_a)
            decision_b = crit_b.evaluate(samples_b)
            assert decision_a == decision_b

    def test_samples_helper_uses_block(self, s27_circuit):
        sampler = _batch(s27_circuit, chains=8)
        values = sampler.samples(interval=0, count=20)
        assert len(values) == 24  # rounded up to whole batches of 8


class TestAdaptiveChains:
    def _adaptive_config(self, **overrides):
        defaults = dict(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=32,
            max_samples=4000,
            warmup_cycles=8,
            max_independence_interval=8,
            num_chains=4,
            adaptive_chains=True,
            max_chains=64,
        )
        defaults.update(overrides)
        return EstimationConfig(**defaults)

    def test_resize_rebuilds_and_rewarms(self, s27_circuit):
        sampler = _batch(s27_circuit, chains=4, rng=3)
        sampler.prepare(warmup_cycles=8)
        cycles_before = sampler.cycles_simulated
        sampler.resize(16)
        assert sampler.num_chains == 16
        assert sampler.cycles_simulated > cycles_before  # re-warmed
        assert sampler.next_samples(1).shape == (16,)
        sampler.resize(16)  # no-op
        assert sampler.num_chains == 16

    def test_plan_chain_resize_grows_and_shrinks(self, s27_circuit):
        from repro.stats.stopping.base import StoppingDecision

        config = EstimationConfig(
            warmup_cycles=8, num_chains=4, adaptive_chains=True, max_chains=256,
            max_relative_error=0.05,
        )
        sampler = _batch(s27_circuit, chains=4, rng=3, config=config)
        far = StoppingDecision(
            should_stop=False, sample_size=128, estimate=1.0,
            lower=0.5, upper=1.5, relative_half_width=0.5,
        )
        assert sampler.plan_chain_resize(far) == 256  # far from target: grow to cap
        sampler.resize(256)
        close = StoppingDecision(
            should_stop=False, sample_size=2000, estimate=1.0,
            lower=0.948, upper=1.052, relative_half_width=0.052,
        )
        proposal = sampler.plan_chain_resize(close)
        assert proposal < 256  # almost done (~160 samples left): shrink decisively
        done = StoppingDecision(
            should_stop=True, sample_size=2000, estimate=1.0,
            lower=0.96, upper=1.04, relative_half_width=0.04,
        )
        assert sampler.plan_chain_resize(done) == sampler.num_chains

    def test_make_sampler_selects_batch_for_adaptive_single_chain(self, s27_circuit):
        from repro.core.batch_sampler import make_sampler

        config = EstimationConfig(warmup_cycles=8, num_chains=1, adaptive_chains=True)
        sampler = make_sampler(
            s27_circuit, BernoulliStimulus(s27_circuit.num_inputs, 0.5), config, rng=1
        )
        assert isinstance(sampler, BatchPowerSampler)

    def test_adaptive_dipe_run_emits_resize_events(self, s27_circuit):
        from repro.api.events import ChainsResized

        config = self._adaptive_config()
        estimator = DipeEstimator(s27_circuit, config=config, rng=8)
        events = list(estimator.run())
        resizes = [event for event in events if isinstance(event, ChainsResized)]
        estimate = events[-1].estimate
        assert estimate.average_power_w > 0
        for event in resizes:
            assert event.previous_chains != event.num_chains
            assert 1 <= event.num_chains <= config.max_chains
        drawn = [event.samples_drawn for event in events]
        assert drawn == sorted(drawn)  # monotone across resizes too

    def test_adaptive_run_reproducible(self, s27_circuit):
        config = self._adaptive_config()
        first = DipeEstimator(s27_circuit, config=config, rng=12).estimate()
        second = DipeEstimator(s27_circuit, config=config, rng=12).estimate()
        assert first.average_power_w == second.average_power_w
        assert first.sample_size == second.sample_size

    def test_adaptive_with_event_driven_engine(self, s27_circuit):
        config = self._adaptive_config(power_simulator="event-driven", max_samples=2000)
        estimate = DipeEstimator(s27_circuit, config=config, rng=4).estimate()
        assert estimate.average_power_w > 0

    def test_snapshot_restores_across_resize(self, s27_circuit):
        """A checkpoint taken after a resize restores into a fresh sampler."""
        source = _batch(s27_circuit, chains=4, rng=19)
        source.prepare(warmup_cycles=4)
        source.resize(16)
        snapshot = source.get_state()
        expected = source.next_samples(1)

        target = _batch(s27_circuit, chains=4, rng=0)  # differently seeded and sized
        target.set_state(snapshot)
        assert target.num_chains == 16
        assert np.array_equal(target.next_samples(1), expected)
