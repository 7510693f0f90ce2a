"""Wall-clock-aware adaptive chain policy (``adaptive_time_aware``)."""

import dataclasses

import pytest

from repro.core.batch_sampler import BatchPowerSampler, draw_sample_block
from repro.core.config import EstimationConfig
from repro.core.dipe import DipeEstimator
from repro.stats.stopping.base import StoppingDecision
from repro.stimulus.random_inputs import BernoulliStimulus


def _config(**overrides):
    defaults = dict(
        randomness_sequence_length=64,
        min_samples=64,
        check_interval=32,
        max_samples=4000,
        warmup_cycles=8,
        max_independence_interval=8,
        num_chains=4,
        adaptive_chains=True,
        max_chains=256,
        max_relative_error=0.05,
    )
    defaults.update(overrides)
    return EstimationConfig(**defaults)


def _sampler(circuit, config, rng=3):
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
    return BatchPowerSampler(
        circuit, stimulus, config, rng=rng, num_chains=config.num_chains
    )


FAR = StoppingDecision(
    should_stop=False,
    sample_size=128,
    estimate=1.0,
    lower=0.5,
    upper=1.5,
    relative_half_width=0.5,
)


class TestConfig:
    def test_defaults_off(self):
        config = EstimationConfig()
        assert config.adaptive_time_aware is False
        assert config.adaptive_target_seconds == 2.0

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="adaptive_target_seconds"):
            EstimationConfig(adaptive_target_seconds=0.0)

    def test_roundtrips_through_dict(self):
        config = _config(adaptive_time_aware=True, adaptive_target_seconds=0.5)
        recovered = EstimationConfig.from_dict(config.to_dict())
        assert recovered.adaptive_time_aware is True
        assert recovered.adaptive_target_seconds == 0.5


class TestTimeAwarePlan:
    def test_plan_unchanged_when_flag_off(self, s27_circuit):
        # Even with timings recorded, the disabled policy must ignore them.
        plain = _sampler(s27_circuit, _config())
        timed = _sampler(s27_circuit, _config())
        timed.note_sweep_seconds(10.0, 1)
        assert timed.plan_chain_resize(FAR) == plain.plan_chain_resize(FAR)

    def test_no_timing_recorded_falls_back_to_fixed_horizon(self, s27_circuit):
        flagged = _sampler(s27_circuit, _config(adaptive_time_aware=True))
        plain = _sampler(s27_circuit, _config())
        assert flagged.plan_chain_resize(FAR) == plain.plan_chain_resize(FAR)

    def test_slow_sweeps_widen_the_ensemble(self, s27_circuit):
        # ~12672 samples remain.  Fixed horizon: 12672/4 sweeps -> cap jump
        # either way; use a moderate target where the horizons separate.
        config = _config(adaptive_time_aware=True, adaptive_target_seconds=1.0)
        slow = _sampler(s27_circuit, config)
        slow.note_sweep_seconds(1.0, 1)  # 1 s/sweep -> 1-sweep horizon
        fast = _sampler(s27_circuit, config)
        fast.note_sweep_seconds(0.02, 1)  # 20 ms/sweep -> 50-sweep horizon
        assert slow.plan_chain_resize(FAR) > fast.plan_chain_resize(FAR)

    def test_horizon_is_clamped(self, s27_circuit):
        config = _config(adaptive_time_aware=True, adaptive_target_seconds=1.0)
        sampler = _sampler(s27_circuit, config)
        sampler.note_sweep_seconds(1e-6, 1)  # absurdly fast: horizon capped at 64
        capped = sampler.plan_chain_resize(FAR)
        sampler._seconds_per_sweep = 1.0 / 64.0  # exactly the 64-sweep horizon
        assert sampler.plan_chain_resize(FAR) == capped

    def test_ema_blends_timings(self, s27_circuit):
        sampler = _sampler(s27_circuit, _config(adaptive_time_aware=True))
        sampler.note_sweep_seconds(1.0, 1)
        assert sampler._seconds_per_sweep == pytest.approx(1.0)
        sampler.note_sweep_seconds(0.5, 1)
        assert sampler._seconds_per_sweep == pytest.approx(0.75)
        sampler.note_sweep_seconds(1.5, 2)  # 0.75 s/sweep batch
        assert sampler._seconds_per_sweep == pytest.approx(0.75)


class TestDrawSampleBlock:
    def test_records_timing_only_when_enabled(self, s27_circuit):
        enabled = _sampler(s27_circuit, _config(adaptive_time_aware=True))
        enabled.prepare(8)
        draw_sample_block(enabled, 2, 16)
        assert enabled._seconds_per_sweep is not None

        disabled = _sampler(s27_circuit, _config())
        disabled.prepare(8)
        draw_sample_block(disabled, 2, 16)
        assert disabled._seconds_per_sweep is None

    def test_draws_bit_identical_with_flag_toggled(self, s27_circuit):
        on = _sampler(s27_circuit, _config(adaptive_time_aware=True), rng=11)
        off = _sampler(s27_circuit, _config(), rng=11)
        on.prepare(8)
        off.prepare(8)
        assert draw_sample_block(on, 2, 64).tolist() == draw_sample_block(off, 2, 64).tolist()


class TestEndToEnd:
    def test_adaptive_run_same_estimate_with_time_awareness(self, s27_circuit):
        # The time-aware policy may resize differently, but the estimate must
        # still be a valid adaptive run; with the flag off the run is
        # bit-identical to a run under a config that never mentions the flag.
        base = _config(max_chains=64)
        flag_off = dataclasses.replace(base, adaptive_time_aware=False)
        a = DipeEstimator(s27_circuit, config=base, rng=21).estimate()
        b = DipeEstimator(s27_circuit, config=flag_off, rng=21).estimate()
        assert a.average_power_w == b.average_power_w
        assert a.samples_switched_capacitance_f == b.samples_switched_capacitance_f

    def test_time_aware_run_completes(self, s27_circuit):
        config = _config(max_chains=64, adaptive_time_aware=True,
                         adaptive_target_seconds=0.05)
        result = DipeEstimator(s27_circuit, config=config, rng=22).estimate()
        assert result.average_power_w > 0
