"""Process-sharded sampler: bit-identical merge, checkpoints, resizes, wiring.

The contract under test everywhere: :class:`ShardedPowerSampler` with any
worker count produces samples, stopping trajectories, checkpoints and final
estimates draw-for-draw identical to :class:`BatchPowerSampler` with the same
``num_chains`` and seed.  Equality assertions are exact — the sharded engine
is required to reproduce the in-process floating-point results bit for bit.
"""

import numpy as np
import pytest

from repro.api.events import ChainsResized, SampleProgress
from repro.core.batch_sampler import BatchPowerSampler, make_sampler
from repro.core.config import EstimationConfig
from repro.core.dipe import DipeEstimator
from repro.core.sharded_sampler import ShardedPowerSampler, partition_chains
from repro.stimulus.random_inputs import BernoulliStimulus


def _pair(circuit, chains, workers, config=None, rng=7, start_method="fork", backend="auto"):
    """A (reference, sharded) sampler pair with identical seeds."""
    config = config or EstimationConfig(warmup_cycles=8)
    reference = BatchPowerSampler(
        circuit,
        BernoulliStimulus(circuit.num_inputs, 0.5),
        config,
        rng=rng,
        num_chains=chains,
        backend=backend,
    )
    sharded = ShardedPowerSampler(
        circuit,
        BernoulliStimulus(circuit.num_inputs, 0.5),
        config,
        rng=rng,
        num_chains=chains,
        backend=backend,
        num_workers=workers,
        start_method=start_method,
    )
    return reference, sharded


class TestPartition:
    def test_word_aligned_partition(self):
        assert partition_chains(256, 2) == [(0, 128), (128, 128)]
        assert partition_chains(100, 2) == [(0, 64), (64, 36)]
        assert partition_chains(192, 3) == [(0, 64), (64, 64), (128, 64)]

    def test_surplus_workers_idle(self):
        assert partition_chains(4, 2) == [(0, 4), (64, 0)]
        shards = partition_chains(65, 4)
        assert [width for _, width in shards] == [64, 1, 0, 0]

    def test_widths_cover_ensemble(self):
        for chains in (1, 63, 64, 65, 128, 200, 1024):
            for workers in (1, 2, 3, 5, 8):
                shards = partition_chains(chains, workers)
                assert sum(width for _, width in shards) == chains
                assert shards[0][1] > 0  # worker 0 always owns chain 0
                for offset, width in shards:
                    assert offset % 64 == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_chains(0, 2)
        with pytest.raises(ValueError):
            partition_chains(8, 0)


class TestMergeEquivalence:
    """Merged streams are bit-identical to the in-process sampler."""

    @pytest.mark.parametrize(
        "chains,workers", [(128, 2), (100, 3), (130, 2), (8, 2), (192, 4)]
    )
    def test_sample_block_bit_identical(self, s298_circuit, chains, workers):
        reference, sharded = _pair(s298_circuit, chains, workers)
        with sharded:
            assert np.array_equal(
                reference.sample_block(2, 3 * chains), sharded.sample_block(2, 3 * chains)
            )
            assert np.array_equal(reference.next_samples(1), sharded.next_samples(1))
            assert reference.cycles_simulated == sharded.cycles_simulated

    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    @pytest.mark.parametrize("power_simulator", ("zero-delay", "event-driven"))
    @pytest.mark.parametrize("circuit_name", ("s298", "s1494"))
    def test_unaligned_width_bit_identical(self, circuit_name, power_simulator, seed):
        """130 chains on 2 workers: shard 1 holds two lanes, yet every lane is exact.

        Lane energies come from integer per-class toggle counts, so a lane's
        float cannot depend on how many lanes share its engine.
        """
        from repro.circuits.iscas89 import build_circuit

        config = EstimationConfig(warmup_cycles=8, power_simulator=power_simulator)
        reference, sharded = _pair(build_circuit(circuit_name), 130, 2, config=config, rng=seed)
        with sharded:
            assert np.array_equal(
                reference.sample_block(1, 20 * 130), sharded.sample_block(1, 20 * 130)
            )

    @pytest.mark.parametrize("sharded", (False, True), ids=("in-process", "sharded"))
    @pytest.mark.parametrize("power_simulator", ("zero-delay", "event-driven"))
    def test_collect_sequence_is_lane_zero_of_measure_cycle(
        self, s298_circuit, power_simulator, sharded
    ):
        """The runs-test sequence equals lane 0 of the same cycles measured in full."""
        config = EstimationConfig(warmup_cycles=8, power_simulator=power_simulator)

        def make():
            stimulus = BernoulliStimulus(s298_circuit.num_inputs, 0.5)
            if sharded:
                return ShardedPowerSampler(
                    s298_circuit, stimulus, config, rng=5, num_chains=130, num_workers=2
                )
            return BatchPowerSampler(s298_circuit, stimulus, config, rng=5, num_chains=130)

        lane0, full = make(), make()
        try:
            sequence = lane0.collect_sequence(2, 12)
            expected = []
            for _ in range(12):
                full.advance(2)
                expected.append(float(full.measure_cycle()[0]))
            assert sequence == expected
            assert lane0.cycles_simulated == full.cycles_simulated
        finally:
            if sharded:
                lane0.close()
                full.close()

    def test_serial_pool_matches_processes(self, s298_circuit):
        reference, serial = _pair(s298_circuit, 128, 2, start_method="serial")
        with serial:
            assert np.array_equal(
                reference.sample_block(1, 256), serial.sample_block(1, 256)
            )

    def test_spawn_start_method(self, s298_circuit):
        reference, spawned = _pair(s298_circuit, 128, 2, start_method="spawn")
        with spawned:
            assert np.array_equal(
                reference.sample_block(1, 128), spawned.sample_block(1, 128)
            )

    def test_forced_bigint_backend(self, s27_circuit):
        reference, sharded = _pair(s27_circuit, 96, 2, backend="bigint")
        with sharded:
            assert sharded.backend == "bigint"
            assert np.array_equal(
                reference.sample_block(1, 192), sharded.sample_block(1, 192)
            )

    def test_event_driven_bit_identical(self, s298_circuit):
        config = EstimationConfig(warmup_cycles=8, power_simulator="event-driven")
        reference, sharded = _pair(s298_circuit, 100, 2, config=config, rng=3)
        with sharded:
            assert np.array_equal(
                reference.sample_block(1, 200), sharded.sample_block(1, 200)
            )

    def test_collect_sequence_and_measure(self, s298_circuit):
        reference, sharded = _pair(s298_circuit, 128, 2)
        with sharded:
            assert reference.collect_sequence(1, 25) == sharded.collect_sequence(1, 25)
            assert np.array_equal(reference.measure_cycle(), sharded.measure_cycle())
            assert reference.measure_cycle_total() == pytest.approx(
                sharded.measure_cycle_total()
            )

    def test_restart_from_random_state(self, s298_circuit):
        reference, sharded = _pair(s298_circuit, 128, 2)
        with sharded:
            reference.prepare()
            sharded.prepare()
            reference.restart_from_random_state()
            sharded.restart_from_random_state()
            assert np.array_equal(reference.next_samples(0), sharded.next_samples(0))

    def test_validation_errors(self, s298_circuit):
        _, sharded = _pair(s298_circuit, 128, 2, start_method="serial")
        with sharded:
            with pytest.raises(ValueError):
                sharded.next_samples(-1)
            with pytest.raises(ValueError):
                sharded.sample_block(0, 0)
            with pytest.raises(ValueError):
                sharded.collect_sequence(-1, 10)
            with pytest.raises(ValueError):
                sharded.advance(-1)
        with pytest.raises(ValueError):
            ShardedPowerSampler(
                s298_circuit,
                BernoulliStimulus(s298_circuit.num_inputs, 0.5),
                EstimationConfig(),
                num_workers=0,
            )


class TestResize:
    """Adaptive resizes re-partition shards with in-process RNG consumption."""

    def test_resize_crosses_shard_boundaries(self, s298_circuit):
        reference, sharded = _pair(s298_circuit, 32, 4, rng=5)
        with sharded:
            a = reference.sample_block(1, 64)
            b = sharded.sample_block(1, 64)
            assert np.array_equal(a, b)
            # Grow far past max_chains // num_workers: every worker gets lanes.
            reference.resize(512)
            sharded.resize(512)
            assert [w for _, w in sharded._shards] == [128, 128, 128, 128]
            assert np.array_equal(
                reference.sample_block(1, 512), sharded.sample_block(1, 512)
            )
            # Shrink to fewer chains than workers: surplus workers idle.
            reference.resize(16)
            sharded.resize(16)
            assert [w for _, w in sharded._shards] == [16, 0, 0, 0]
            assert np.array_equal(
                reference.sample_block(1, 32), sharded.sample_block(1, 32)
            )
            assert reference.cycles_simulated == sharded.cycles_simulated

    def test_adaptive_dipe_identical_across_workers(self, s27_circuit):
        config = EstimationConfig(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=32,
            max_samples=3000,
            warmup_cycles=8,
            max_independence_interval=8,
            num_chains=4,
            adaptive_chains=True,
            max_chains=256,
        )
        from dataclasses import replace

        plain = DipeEstimator(s27_circuit, config=config, rng=8)
        sharded = DipeEstimator(s27_circuit, config=replace(config, num_workers=2), rng=8)
        events_plain = list(plain.run())
        events_sharded = list(sharded.run())
        resizes = [e for e in events_sharded if isinstance(e, ChainsResized)]
        assert [e.num_chains for e in resizes] == [
            e.num_chains for e in events_plain if isinstance(e, ChainsResized)
        ]
        assert (
            events_plain[-1].estimate.samples_switched_capacitance_f
            == events_sharded[-1].estimate.samples_switched_capacitance_f
        )

    def test_resize_noop_keeps_stream(self, s298_circuit):
        reference, sharded = _pair(s298_circuit, 128, 2)
        with sharded:
            reference.prepare()
            sharded.prepare()
            reference.resize(128)
            sharded.resize(128)
            assert np.array_equal(reference.next_samples(1), sharded.next_samples(1))


class TestCheckpoints:
    """Checkpoints are interchangeable between sharded and in-process engines."""

    def test_state_roundtrip_same_engine(self, s298_circuit):
        _, source = _pair(s298_circuit, 128, 2, rng=19)
        with source:
            source.prepare()
            source.advance(5)
            snapshot = source.get_state()
            expected = source.next_samples(1)
            _, target = _pair(s298_circuit, 128, 2, rng=0)
            with target:
                target.set_state(snapshot)
                assert np.array_equal(target.next_samples(1), expected)

    def test_sharded_state_restores_into_batch_sampler(self, s298_circuit):
        reference, sharded = _pair(s298_circuit, 100, 2, rng=19)
        with sharded:
            sharded.prepare()
            snapshot = sharded.get_state()
            expected = sharded.next_samples(1)
        target = BatchPowerSampler(
            s298_circuit,
            BernoulliStimulus(s298_circuit.num_inputs, 0.5),
            EstimationConfig(warmup_cycles=8),
            rng=0,
            num_chains=100,
        )
        target.set_state(snapshot)
        assert np.array_equal(target.next_samples(1), expected)

    def test_batch_state_restores_into_sharded(self, s298_circuit):
        reference, sharded = _pair(s298_circuit, 100, 2, rng=19)
        reference.prepare()
        snapshot = reference.get_state()
        expected = reference.next_samples(1)
        with sharded:
            sharded.set_state(snapshot)
            assert np.array_equal(sharded.next_samples(1), expected)

    def test_state_roundtrip_across_resize(self, s298_circuit):
        _, source = _pair(s298_circuit, 32, 3, rng=23)
        with source:
            source.prepare()
            source.resize(192)
            snapshot = source.get_state()
            expected = source.next_samples(1)
            _, target = _pair(s298_circuit, 32, 3, rng=0)
            with target:
                target.set_state(snapshot)
                assert target.num_chains == 192
                assert np.array_equal(target.next_samples(1), expected)

    def test_dipe_checkpoint_resume_under_sharding(self, s27_circuit):
        from dataclasses import replace

        kwargs = dict(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=32,
            max_samples=2000,
            warmup_cycles=16,
            max_independence_interval=8,
            num_chains=64,
        )
        config_sharded = EstimationConfig(num_workers=2, **kwargs)
        config_plain = EstimationConfig(**kwargs)

        def checkpoint_at(config, samples_at):
            estimator = DipeEstimator(s27_circuit, config=config, rng=21)
            stream = estimator.run()
            for event in stream:
                if isinstance(event, SampleProgress) and event.samples_drawn >= samples_at:
                    checkpoint = estimator.make_checkpoint()
                    stream.close()
                    return checkpoint
            raise AssertionError("run finished before the checkpoint point")

        uninterrupted = DipeEstimator(s27_circuit, config=config_sharded, rng=21).estimate()
        resumed = DipeEstimator(s27_circuit, config=config_sharded, rng=21).estimate_from(
            checkpoint_at(config_sharded, 64)
        )
        assert (
            resumed.samples_switched_capacitance_f
            == uninterrupted.samples_switched_capacitance_f
        )
        assert resumed.average_power_w == uninterrupted.average_power_w

        # Cross-engine resumes: sharded checkpoint -> in-process run and back.
        crossed = DipeEstimator(s27_circuit, config=config_plain, rng=21).estimate_from(
            checkpoint_at(config_sharded, 64)
        )
        assert (
            crossed.samples_switched_capacitance_f
            == uninterrupted.samples_switched_capacitance_f
        )
        crossed_back = DipeEstimator(
            s27_circuit, config=config_sharded, rng=21
        ).estimate_from(checkpoint_at(config_plain, 64))
        assert (
            crossed_back.samples_switched_capacitance_f
            == uninterrupted.samples_switched_capacitance_f
        )
        assert replace(config_sharded, num_workers=1) == config_plain


class TestEstimatorWiring:
    def test_make_sampler_selects_sharded(self, s27_circuit):
        config = EstimationConfig(warmup_cycles=8, num_chains=8, num_workers=2)
        sampler = make_sampler(
            s27_circuit, BernoulliStimulus(s27_circuit.num_inputs, 0.5), config, rng=1
        )
        assert isinstance(sampler, ShardedPowerSampler)
        assert isinstance(sampler, BatchPowerSampler)
        sampler.close()

    def test_dipe_estimates_identical_across_worker_counts(self, s27_circuit):
        kwargs = dict(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=32,
            max_samples=2000,
            warmup_cycles=16,
            max_independence_interval=8,
            num_chains=64,
        )
        baseline = DipeEstimator(
            s27_circuit, config=EstimationConfig(**kwargs), rng=9
        ).estimate()
        for workers in (2, 3):
            sharded = DipeEstimator(
                s27_circuit, config=EstimationConfig(num_workers=workers, **kwargs), rng=9
            ).estimate()
            assert sharded.average_power_w == baseline.average_power_w
            assert sharded.sample_size == baseline.sample_size
            assert (
                sharded.samples_switched_capacitance_f
                == baseline.samples_switched_capacitance_f
            )
            assert sharded.cycles_simulated == baseline.cycles_simulated

    def test_sample_progress_carries_shard_fields(self, s27_circuit):
        config = EstimationConfig(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=32,
            max_samples=1000,
            warmup_cycles=8,
            max_independence_interval=8,
            num_chains=128,
            num_workers=2,
        )
        events = list(DipeEstimator(s27_circuit, config=config, rng=4).run())
        progress = [event for event in events if isinstance(event, SampleProgress)]
        assert progress
        for event in progress:
            assert event.num_workers == 2
            assert [shard.worker for shard in event.shards] == [0, 1]
            assert sum(shard.num_chains for shard in event.shards) == 128
            assert event.shards[0].lane_offset == 0
        payload = progress[0].to_dict()
        assert payload["num_workers"] == 2
        assert "shards" not in payload  # rich payloads stay out of the JSON stream

    def test_in_process_progress_has_no_shards(self, s27_circuit):
        config = EstimationConfig(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=32,
            max_samples=1000,
            warmup_cycles=8,
            max_independence_interval=8,
            num_chains=16,
        )
        events = list(DipeEstimator(s27_circuit, config=config, rng=4).run())
        progress = [event for event in events if isinstance(event, SampleProgress)]
        assert all(event.num_workers == 1 and event.shards == () for event in progress)

    def test_baselines_run_sharded(self, s27_circuit):
        from repro.core.baselines import ConsecutiveCycleEstimator, FixedWarmupEstimator

        config = EstimationConfig(
            min_samples=64,
            check_interval=16,
            max_samples=1500,
            warmup_cycles=8,
            num_chains=64,
            num_workers=2,
        )
        plain = EstimationConfig(
            min_samples=64, check_interval=16, max_samples=1500, warmup_cycles=8,
            num_chains=64,
        )
        for estimator_cls, params in (
            (ConsecutiveCycleEstimator, {}),
            (FixedWarmupEstimator, {"warmup_period": 6}),
        ):
            sharded = estimator_cls(s27_circuit, config=config, rng=3, **params).estimate()
            reference = estimator_cls(s27_circuit, config=plain, rng=3, **params).estimate()
            assert (
                sharded.samples_switched_capacitance_f
                == reference.samples_switched_capacitance_f
            )

    def test_close_is_idempotent(self, s27_circuit):
        _, sharded = _pair(s27_circuit, 128, 2)
        sharded.close()
        sharded.close()


class TestTeardown:
    """Pool teardown must be idempotent and silent.

    The same ``stop()`` path runs from a ``weakref.finalize`` callback during
    interpreter shutdown, where pipes may already be closed and stderr noise
    shows up as spurious tracebacks after the program has "finished".
    """

    def test_shard_stop_idempotent_and_silent(self, s27_circuit, capfd):
        _, sharded = _pair(s27_circuit, 128, 2)
        handles = list(sharded._handles)
        sharded.close()
        for handle in handles:  # stop again on already-stopped shards
            handle.stop()
            handle.stop()
        assert capfd.readouterr().err == ""

    def test_stop_with_torn_pipe_is_silent(self, s27_circuit, capfd):
        _, sharded = _pair(s27_circuit, 128, 2)
        for handle in sharded._handles:
            handle.connection.close()  # simulate shutdown-time pipe teardown
        sharded.close()  # must not raise or print despite the dead pipes
        assert capfd.readouterr().err == ""

    def test_shutdown_pool_never_raises(self):
        from repro.core.sharded_sampler import _shutdown_pool

        class ExplodingHandle:
            def stop(self):
                raise RuntimeError("boom")

        _shutdown_pool([ExplodingHandle(), ExplodingHandle()])


class TestPoolComposition:
    """Shard pools compose with the job-level BatchRunner pool."""

    def test_sharded_job_inside_batch_runner(self, tmp_path):
        from repro.api.batch import BatchRunner
        from repro.api.jobs import JobSpec

        config = EstimationConfig(
            randomness_sequence_length=64,
            min_samples=64,
            check_interval=32,
            max_samples=1000,
            warmup_cycles=8,
            max_independence_interval=4,
            num_chains=64,
            num_workers=2,
        )
        spec = JobSpec(circuit="s27", seed=13, config=config, label="nested-pools")
        serial = BatchRunner(workers=1).run([spec])
        parallel = BatchRunner(workers=2).run([spec, spec])
        assert serial.all_ok and parallel.all_ok
        assert (
            parallel.results[0].estimate.average_power_w
            == serial.results[0].estimate.average_power_w
        )
        assert (
            parallel.results[1].estimate.samples_switched_capacitance_f
            == serial.results[0].estimate.samples_switched_capacitance_f
        )


    @pytest.mark.parametrize(
        "allowed, workers, pinned",
        [
            ({0, 1}, 2, [0, 1]),
            ({2, 5}, 3, [2, 5]),
            ({0, 1, 2, 3}, 2, []),
            ({0}, 2, []),
        ],
    )
    def test_seats_pinned_only_when_the_pool_fills_the_cpus(
        self, monkeypatch, allowed, workers, pinned
    ):
        """Concurrent pools smaller than the CPU set stay unpinned, so they spread out."""
        from repro.core import sharded_sampler

        monkeypatch.setattr(
            sharded_sampler.os, "sched_getaffinity", lambda pid: allowed, raising=False
        )
        assert sharded_sampler._seat_cpus(workers) == pinned


class TestPartitionDegenerateCases:
    """Edge topologies of the word-aligned partition: the elastic-membership
    paths (mid-run joins and folds) re-partition through exactly this
    function, so its degenerate shapes must all stay covering and aligned."""

    def test_single_chain_many_workers(self):
        shards = partition_chains(1, 8)
        assert shards[0] == (0, 1)
        assert all(width == 0 for _, width in shards[1:])
        assert len(shards) == 8

    def test_exactly_one_word_split_many_ways(self):
        # 64 chains is one lane word: indivisible, the first seat owns it all.
        for workers in (2, 3, 64):
            shards = partition_chains(64, workers)
            assert shards[0][1] == 64
            assert all(width == 0 for _, width in shards[1:])

    def test_more_workers_than_words(self):
        # 129 chains span 3 words; 5 workers leave two zero-width seats.
        shards = partition_chains(129, 5)
        assert sum(width for _, width in shards) == 129
        assert sum(1 for _, width in shards if width == 0) == 2
        assert all(offset % 64 == 0 for offset, _ in shards)

    def test_word_multiple_is_balanced(self):
        shards = partition_chains(64 * 6, 3)
        assert [width for _, width in shards] == [128, 128, 128]
        assert [offset for offset, _ in shards] == [0, 128, 256]

    def test_offsets_are_strictly_increasing_for_live_seats(self):
        for chains in (65, 127, 128, 1000):
            for workers in (2, 3, 7):
                live = [s for s in partition_chains(chains, workers) if s[1] > 0]
                offsets = [offset for offset, _ in live]
                assert offsets == sorted(set(offsets))
                # Live seats tile the ensemble without gaps or overlap.
                covered = []
                for offset, width in live:
                    covered.extend(range(offset, offset + width))
                assert covered == list(range(chains))

    def test_degenerate_resize_through_zero_width_seats(self, s298_circuit):
        # Shrink to a single chain (3 of 4 seats go zero-width), sample, then
        # grow back past every word boundary — bit-identical throughout.
        reference, sharded = _pair(s298_circuit, 128, 4, rng=3)
        with sharded:
            assert np.array_equal(
                reference.sample_block(1, 128), sharded.sample_block(1, 128)
            )
            reference.resize(1)
            sharded.resize(1)
            assert [width for _, width in sharded._shards] == [1, 0, 0, 0]
            assert np.array_equal(
                reference.sample_block(1, 4), sharded.sample_block(1, 4)
            )
            reference.resize(256)
            sharded.resize(256)
            assert np.array_equal(
                reference.sample_block(1, 256), sharded.sample_block(1, 256)
            )
            assert reference.cycles_simulated == sharded.cycles_simulated
