"""DIPE: distribution-independent statistical power estimation (Fig. 1 flow).

:class:`DipeEstimator` implements the complete flow of the paper:

1. load the circuit and electrical models, warm the FSM up;
2. determine the independence interval with the sequential runs-test
   procedure (Fig. 2);
3. generate random power samples with the two-phase simulation scheme (cheap
   zero-delay simulation during the interval, the configured power engine on
   the sampled cycle);
4. feed the growing sample into a distribution-independent stopping criterion
   and terminate when the requested accuracy and confidence are reached.

The flow executes incrementally: :meth:`DipeEstimator.run` is a generator
that yields typed :class:`~repro.api.events.ProgressEvent` objects — run
start, interval-selection diagnostics, a stopping-criterion verdict after
every batch of new samples, and a final
:class:`~repro.api.events.EstimateCompleted` carrying the
:class:`~repro.core.results.PowerEstimate`.  :meth:`DipeEstimator.estimate`
is a thin driver over the stream; :meth:`DipeEstimator.make_checkpoint` /
``run(resume_from=...)`` freeze and resume a half-finished run with an
identical final estimate.

The convenience function :func:`estimate_average_power` is the legacy
one-line entry point; new code should prefer
:func:`repro.api.run_job` with a :class:`~repro.api.JobSpec`.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.api.checkpoint import RunCheckpoint
from repro.api.events import (
    ChainsResized,
    EstimateCompleted,
    IntervalSelected,
    ProgressEvent,
    RunStarted,
    SampleProgress,
    WorkerJoined,
    WorkerLeft,
    WorkerLost,
    WorkerRecovered,
)
from repro.api.protocol import StreamingEstimator
from repro.api.registry import register_estimator
from repro.circuits.program import as_compiled_circuit
from repro.core.batch_sampler import BatchPowerSampler, draw_sample_block, make_sampler
from repro.core.config import EstimationConfig
from repro.core.interval import select_independence_interval
from repro.core.results import PowerEstimate
from repro.netlist.netlist import Netlist
from repro.simulation.compiled import CompiledCircuit
from repro.stats.sample_buffer import SampleBuffer
from repro.stats.stopping import GroupedStoppingCriterion, make_stopping_criterion
from repro.stimulus.base import Stimulus
from repro.stimulus.random_inputs import BernoulliStimulus
from repro.utils.rng import RandomSource


def _drain_worker_events(sampler, circuit_name, method, samples_drawn):
    """Convert the sampler's queued supervision incidents into typed events.

    Samplers without a supervision layer (no ``take_fault_incidents``) yield
    nothing, so the estimator works unchanged on in-process samplers.
    """
    take = getattr(sampler, "take_fault_incidents", None)
    if take is None:
        return
    for incident in take():
        common = dict(
            circuit=circuit_name,
            method=method,
            samples_drawn=samples_drawn,
            cycles_simulated=sampler.cycles_simulated,
            worker=incident.get("worker", 0),
            pid=incident.get("pid"),
        )
        kind = incident.get("kind")
        if kind == "lost":
            yield WorkerLost(
                exitcode=incident.get("exitcode"),
                reason=incident.get("reason", "died"),
                **common,
            )
        elif kind == "recovered":
            yield WorkerRecovered(
                respawns=incident.get("respawns", 1),
                replayed_commands=incident.get("replayed", 0),
                recovery_seconds=incident.get("seconds", 0.0),
                degraded=incident.get("degraded", False),
                **common,
            )
        elif kind == "joined":
            yield WorkerJoined(
                epoch=incident.get("epoch", 0),
                host=incident.get("host", ""),
                **{**common, "worker": str(incident.get("worker", ""))},
            )
        elif kind == "left":
            yield WorkerLeft(
                epoch=incident.get("epoch", 0),
                reason=incident.get("reason", "disconnected"),
                **{**common, "worker": str(incident.get("worker", ""))},
            )


@register_estimator("dipe")
class DipeEstimator(StreamingEstimator):
    """Average-power estimator for sequential circuits (the paper's DIPE tool).

    Parameters
    ----------
    circuit:
        A :class:`CompiledCircuit` or a :class:`Netlist` (compiled on the fly).
    stimulus:
        Primary-input pattern generator; defaults to mutually independent
        inputs with probability 0.5, the paper's experimental setting.
    config:
        Estimation configuration; defaults to the paper's settings.
    rng:
        Seed or generator controlling every random choice of the run.
    """

    method = "dipe"

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
        # Lane-coupled variance-reduction stimuli (repro.variance) correlate
        # the draws within each measured sweep; per-sample i.i.d. confidence
        # intervals would be invalid, so the criterion evaluates sweep means
        # instead.  The grouped inner criterion counts sweeps, hence the
        # scaled-down min_samples floor.
        lanes_dependent = getattr(self.stimulus, "lanes_dependent", False)
        group = self.sampler.num_chains if lanes_dependent else 1
        if lanes_dependent and self.config.adaptive_chains:
            raise ValueError(
                "adaptive_chains cannot be combined with a lane-coupled "
                "(lanes_dependent) stimulus: resizing would change the sweep "
                "group width mid-run and invalidate the grouped confidence "
                "interval"
            )
        self.sample_group_width = group
        inner = make_stopping_criterion(
            self.config.stopping_criterion,
            max_relative_error=self.config.max_relative_error,
            confidence=self.config.confidence,
            min_samples=(
                max(16, -(-self.config.min_samples // group))
                if group > 1
                else self.config.min_samples
            ),
        )
        self.stopping_criterion = (
            GroupedStoppingCriterion(inner, group) if group > 1 else inner
        )

    # -------------------------------------------------------------- streaming
    def run(self, resume_from: RunCheckpoint | None = None) -> Iterator[ProgressEvent]:
        """Execute the DIPE flow incrementally, yielding progress events.

        The stream's ``samples_drawn`` is monotonically non-decreasing and
        its final event is an :class:`EstimateCompleted` whose ``estimate``
        equals the :meth:`estimate` return value.  Closing the generator
        aborts the run; :meth:`make_checkpoint` (valid between events)
        freezes it so ``run(resume_from=checkpoint)`` on a fresh estimator
        continues the identical trajectory.
        """
        config = self.config
        power_model = config.power_model
        circuit_name = self.circuit.name
        start_time = time.perf_counter()
        elapsed_before = 0.0

        if resume_from is None:
            yield RunStarted(
                circuit=circuit_name, method=self.method, samples_drawn=0, cycles_simulated=0
            )
            self.sampler.prepare(config.warmup_cycles)
            interval_result = select_independence_interval(self.sampler, config)
            samples = SampleBuffer()
        else:
            self._validate_checkpoint(resume_from)
            if resume_from.interval_selection is None:
                raise ValueError("DIPE checkpoints must carry the interval selection")
            elapsed_before = resume_from.elapsed_seconds
            self.sampler.set_state(resume_from.sampler_state)
            interval_result = resume_from.interval_selection
            samples = SampleBuffer(resume_from.samples)

        self._samples = samples
        self._interval_result = interval_result
        self._elapsed_seconds = elapsed_before + (time.perf_counter() - start_time)
        interval = interval_result.interval
        yield from _drain_worker_events(
            self.sampler, circuit_name, self.method, len(samples)
        )
        yield IntervalSelected(
            circuit=circuit_name,
            method=self.method,
            samples_drawn=len(samples),
            cycles_simulated=self.sampler.cycles_simulated,
            interval=interval,
            converged=interval_result.converged,
            num_trials=interval_result.num_trials,
            selection=interval_result,
        )

        # Imported lazily: the repro.variance package's control-variate
        # estimator subclasses DipeEstimator, so a module-level import here
        # would be circular.
        from repro.variance.accumulators import PairedMeanAccumulator

        # Only lane-coupled (grouped) runs report an effective sample size.
        accumulator = None
        if self.sample_group_width > 1:
            accumulator = PairedMeanAccumulator(self.sample_group_width)
            accumulator.extend(samples)
        decision = self.stopping_criterion.evaluate(samples.view())
        while not decision.should_stop and len(samples) < config.max_samples:
            if config.adaptive_chains:
                desired = self.sampler.plan_chain_resize(decision)
                if desired != self.sampler.num_chains:
                    previous = self.sampler.num_chains
                    self.sampler.resize(desired)
                    yield ChainsResized(
                        circuit=circuit_name,
                        method=self.method,
                        samples_drawn=len(samples),
                        cycles_simulated=self.sampler.cycles_simulated,
                        previous_chains=previous,
                        num_chains=desired,
                        relative_half_width=decision.relative_half_width,
                    )
            # One measured sweep yields one sample per chain; the chains'
            # draws are interleaved chain-major into the growing sample by
            # one vectorized block draw per stopping-criterion check.
            block = draw_sample_block(self.sampler, interval, config.check_interval)
            samples.extend(block)
            if accumulator is not None:
                accumulator.extend(block)
            decision = self.stopping_criterion.evaluate(samples.view())
            self._elapsed_seconds = elapsed_before + (time.perf_counter() - start_time)
            yield from _drain_worker_events(
                self.sampler, circuit_name, self.method, len(samples)
            )
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
                num_workers=getattr(self.sampler, "num_workers", 1),
                effective_sample_size=(
                    accumulator.effective_sample_size if accumulator is not None else None
                ),
                shards=(
                    self.sampler.shard_progress()
                    if hasattr(self.sampler, "shard_progress")
                    else ()
                ),
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
            independence_interval=interval,
            cycles_simulated=self.sampler.cycles_simulated,
            elapsed_seconds=elapsed,
            stopping_criterion=self.stopping_criterion.name,
            accuracy_met=decision.should_stop,
            interval_selection=interval_result,
            effective_sample_size=(
                accumulator.effective_sample_size if accumulator is not None else None
            ),
            samples_switched_capacitance_f=tuple(samples.tolist()),
        )
        yield from _drain_worker_events(
            self.sampler, circuit_name, self.method, len(samples)
        )
        yield EstimateCompleted(
            circuit=circuit_name,
            method=self.method,
            samples_drawn=len(samples),
            cycles_simulated=self.sampler.cycles_simulated,
            estimate=estimate,
        )

def estimate_average_power(
    circuit: CompiledCircuit | Netlist,
    stimulus: Stimulus | None = None,
    config: EstimationConfig | None = None,
    rng: RandomSource = None,
) -> PowerEstimate:
    """One-call DIPE estimation of a circuit's average power.

    Equivalent to constructing a :class:`DipeEstimator` and calling
    :meth:`~DipeEstimator.estimate`.  Kept as a compatibility shim; new code
    should build a :class:`repro.api.JobSpec` and call
    :func:`repro.api.run_job`, which adds registries, streaming progress and
    batch execution on top of the same flow.
    """
    return DipeEstimator(circuit, stimulus=stimulus, config=config, rng=rng).estimate()
