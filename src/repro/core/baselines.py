"""Baseline estimators the paper compares against (implicitly or explicitly).

* :class:`ConsecutiveCycleEstimator` — the classic Monte-Carlo power
  estimator (Burch et al. [11], Najm et al. [1]): power is sampled in every
  clock cycle and a CLT-based stopping rule terminates the run.  In a
  sequential circuit consecutive samples are temporally correlated, so the
  nominal confidence statement is optimistic — this estimator exists to
  demonstrate the failure mode DIPE fixes (ablation experiment B).
* :class:`FixedWarmupEstimator` — the conservative a-priori warm-up scheme in
  the spirit of Chou & Roy [9]: every sample is taken from an independently
  re-randomised state after a fixed warm-up period, long enough under a
  pessimistic assumption about the FSM's mixing behaviour.  It is unbiased
  but wastes simulation cycles whenever the circuit mixes faster than the
  pessimistic assumption — the inefficiency DIPE's dynamic interval selection
  removes.

Both baselines speak the same incremental-execution protocol as
:class:`~repro.core.dipe.DipeEstimator`: ``run()`` streams typed
:class:`~repro.api.events.ProgressEvent` objects, ``estimate()`` drives the
stream, and :meth:`make_checkpoint` / ``run(resume_from=...)`` freeze and
resume a half-finished run.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from repro.api.checkpoint import RunCheckpoint
from repro.api.events import (
    EstimateCompleted,
    ProgressEvent,
    RunStarted,
    SampleProgress,
)
from repro.api.protocol import StreamingEstimator
from repro.api.registry import register_estimator
from repro.circuits.program import as_compiled_circuit
from repro.core.batch_sampler import BatchPowerSampler, make_sampler
from repro.core.config import EstimationConfig
from repro.core.results import PowerEstimate
from repro.netlist.netlist import Netlist
from repro.simulation.compiled import CompiledCircuit
from repro.stats.sample_buffer import SampleBuffer
from repro.stats.stopping import make_stopping_criterion
from repro.stimulus.base import Stimulus
from repro.stimulus.random_inputs import BernoulliStimulus
from repro.utils.rng import RandomSource


class _BaselineEstimator(StreamingEstimator):
    """Shared plumbing of the baseline estimators."""

    method = "baseline"

    def __init__(
        self,
        circuit: CompiledCircuit | Netlist,
        stimulus: Stimulus | None = None,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
    ):
        circuit = as_compiled_circuit(circuit)
        self.circuit = circuit
        self.config = config or EstimationConfig()
        self.stimulus = stimulus or BernoulliStimulus(circuit.num_inputs, 0.5)
        self.sampler: BatchPowerSampler = make_sampler(circuit, self.stimulus, self.config, rng=rng)

    def _collect_batch(self) -> np.ndarray:
        """Draw the next batch of samples (one per chain)."""
        raise NotImplementedError

    def _interval(self) -> int:
        return 0

    def _stopping_name(self) -> str:
        return self.config.stopping_criterion

    # -------------------------------------------------------------- streaming
    def run(self, resume_from: RunCheckpoint | None = None) -> Iterator[ProgressEvent]:
        """Execute the baseline loop incrementally, yielding progress events."""
        config = self.config
        power_model = config.power_model
        circuit_name = self.circuit.name
        criterion = make_stopping_criterion(
            self._stopping_name(),
            max_relative_error=config.max_relative_error,
            confidence=config.confidence,
            min_samples=config.min_samples,
        )
        start_time = time.perf_counter()
        elapsed_before = 0.0

        if resume_from is None:
            yield RunStarted(
                circuit=circuit_name, method=self.method, samples_drawn=0, cycles_simulated=0
            )
            self.sampler.prepare(config.warmup_cycles)
            samples = SampleBuffer()
        else:
            self._validate_checkpoint(resume_from)
            elapsed_before = resume_from.elapsed_seconds
            self.sampler.set_state(resume_from.sampler_state)
            samples = SampleBuffer(resume_from.samples)

        self._samples = samples
        self._elapsed_seconds = elapsed_before + (time.perf_counter() - start_time)

        decision = criterion.evaluate(samples.view())
        while not decision.should_stop and len(samples) < config.max_samples:
            added = 0
            while added < config.check_interval:
                new_samples = self._collect_batch()
                samples.extend(new_samples)
                added += len(new_samples)
            decision = criterion.evaluate(samples.view())
            self._elapsed_seconds = elapsed_before + (time.perf_counter() - start_time)
            yield SampleProgress(
                circuit=circuit_name,
                method=self.method,
                samples_drawn=len(samples),
                cycles_simulated=self.sampler.cycles_simulated,
                running_mean_w=power_model.cycle_power(max(decision.estimate, 0.0)),
                lower_bound_w=power_model.cycle_power(max(decision.lower, 0.0)),
                upper_bound_w=power_model.cycle_power(max(decision.upper, 0.0)),
                relative_half_width=decision.relative_half_width,
                accuracy_met=decision.should_stop,
            )

        elapsed = elapsed_before + (time.perf_counter() - start_time)
        estimate = PowerEstimate(
            circuit_name=circuit_name,
            method=self.method,
            average_power_w=power_model.cycle_power(decision.estimate),
            lower_bound_w=power_model.cycle_power(max(decision.lower, 0.0)),
            upper_bound_w=power_model.cycle_power(max(decision.upper, 0.0)),
            relative_half_width=decision.relative_half_width,
            sample_size=len(samples),
            independence_interval=self._interval(),
            cycles_simulated=self.sampler.cycles_simulated,
            elapsed_seconds=elapsed,
            stopping_criterion=criterion.name,
            accuracy_met=decision.should_stop,
            interval_selection=None,
            samples_switched_capacitance_f=tuple(samples.tolist()),
        )
        yield EstimateCompleted(
            circuit=circuit_name,
            method=self.method,
            samples_drawn=len(samples),
            cycles_simulated=self.sampler.cycles_simulated,
            estimate=estimate,
        )

@register_estimator("consecutive-mc")
class ConsecutiveCycleEstimator(_BaselineEstimator):
    """Monte-Carlo estimation from consecutive (correlated) clock cycles.

    The default stopping rule is the parametric CLT criterion, matching the
    historical estimators this baseline represents; any criterion accepted by
    :func:`repro.stats.stopping.make_stopping_criterion` can be selected via
    the configuration.
    """

    method = "consecutive-mc"

    def __init__(
        self,
        circuit: CompiledCircuit | Netlist,
        stimulus: Stimulus | None = None,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
        stopping_criterion: str = "clt",
    ):
        super().__init__(circuit, stimulus=stimulus, config=config, rng=rng)
        self._stopping = stopping_criterion

    def _stopping_name(self) -> str:
        return self._stopping

    def _collect_batch(self) -> np.ndarray:
        return self.sampler.next_samples(interval=0)


@register_estimator("fixed-warmup")
class FixedWarmupEstimator(_BaselineEstimator):
    """Independent samples via a fixed, a-priori warm-up period.

    Every sample re-randomises the latch state and simulates ``warmup_period``
    clock cycles before measuring one cycle.  The warm-up period plays the
    role of the pessimistic bound of Chou & Roy: correctness does not depend
    on the FSM's actual mixing time as long as the period is long enough, but
    every sample costs ``warmup_period + 1`` simulated cycles regardless of
    how quickly the circuit actually forgets its state.
    """

    method = "fixed-warmup"

    def __init__(
        self,
        circuit: CompiledCircuit | Netlist,
        stimulus: Stimulus | None = None,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
        warmup_period: int = 50,
        stopping_criterion: str | None = None,
    ):
        super().__init__(circuit, stimulus=stimulus, config=config, rng=rng)
        if warmup_period < 0:
            raise ValueError("warmup_period must be non-negative")
        self.warmup_period = warmup_period
        self._stopping = stopping_criterion or self.config.stopping_criterion

    def _stopping_name(self) -> str:
        return self._stopping

    def _interval(self) -> int:
        return self.warmup_period

    def _collect_batch(self) -> np.ndarray:
        self.sampler.restart_from_random_state()
        self.sampler.advance(self.warmup_period)
        return self.sampler.measure_cycle()
