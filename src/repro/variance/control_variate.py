"""Control-variate power estimator: regress out the zero-delay component.

Under the event-driven power engine, every sampled cycle's glitch-inclusive
measurement ``y`` is strongly correlated with the *cheap* zero-delay
functional-transition count ``c`` of the very same cycle on the very same
lanes — the functional transitions are the bulk of both.  The classical
control-variate identity turns that correlation into variance reduction:

``z = y - beta * (c_measured - c_reference)``

has the same expectation as ``y`` whenever ``E[c_measured] =
E[c_reference]``, and for ``beta = cov(y, c) / var(c)`` its variance drops by
the squared correlation.  The reference here is the mean zero-delay switched
capacitance of the advance cycles inside the same sweep — cycles the
two-phase DIPE scheme simulates *anyway* to traverse the independence
interval, so the control is free: both ``c`` terms are stationary zero-delay
measurements and their expectation difference is exactly zero.

:class:`ControlVariateEstimator` runs the standard DIPE flow (warm-up,
runs-test interval selection, sequential stopping) but collects **sweep
triples** ``(mean y, mean c_measured, mean c_reference)`` per measured sweep
of the chain ensemble; ``beta`` is re-estimated online from all sweeps so
far, and the stopping criterion evaluates the adjusted sweep means ``z`` —
i.i.d. replicates, so the confidence interval is valid.  The widened cheap
window (``cheap_cycles`` advance measurements per sweep, default 16) keeps
the reference mean's own noise from eating the gain.

Registered as ``"control-variate"`` (alias ``"cv"``); requires the
event-driven power engine (under zero delay the control *is* the
measurement and the regression is degenerate).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterator

import numpy as np

from repro.api.checkpoint import RunCheckpoint
from repro.api.events import (
    EstimateCompleted,
    IntervalSelected,
    ProgressEvent,
    RunStarted,
    SampleProgress,
)
from repro.api.registry import register_estimator
from repro.core.config import EstimationConfig
from repro.core.dipe import DipeEstimator
from repro.core.interval import select_independence_interval
from repro.core.results import PowerEstimate
from repro.netlist.netlist import Netlist
from repro.simulation.compiled import CompiledCircuit
from repro.stats.sample_buffer import SampleBuffer
from repro.stats.stopping import make_stopping_criterion
from repro.stimulus.base import Stimulus
from repro.utils.rng import RandomSource

__all__ = ["ControlVariateEstimator"]


@register_estimator("control-variate", aliases=("cv",))
class ControlVariateEstimator(DipeEstimator):
    """DIPE with an online-estimated zero-delay control variate.

    Parameters
    ----------
    circuit, stimulus, config, rng:
        As for :class:`~repro.core.dipe.DipeEstimator`.  The configuration
        must select ``power_simulator="event-driven"`` and the in-process
        sampler (``num_workers=1``, ``adaptive_chains=False``).
    cheap_cycles:
        Zero-delay advance measurements per sweep feeding the reference mean
        (at least 2; the sweep advances ``max(interval, cheap_cycles)``
        cycles, so values up to the independence interval are entirely free).

    The estimate's ``samples_switched_capacitance_f`` holds the *adjusted
    sweep means* ``z`` — the i.i.d. values the confidence interval is built
    from — rather than raw per-cycle samples; ``sample_size`` still counts
    raw per-chain samples so accounting matches the other estimators.
    """

    method = "control-variate"

    def __init__(
        self,
        circuit: CompiledCircuit | Netlist,
        stimulus: Stimulus | None = None,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
        cheap_cycles: int = 16,
    ):
        config = config or EstimationConfig()
        if config.power_simulator == "zero-delay":
            raise ValueError(
                "the control-variate estimator needs a power simulator whose "
                "measurement differs from the zero-delay control (use "
                "power_simulator='event-driven'); under zero delay the "
                "regression is degenerate"
            )
        if config.num_workers > 1:
            raise ValueError(
                "the control-variate estimator runs in-process; num_workers "
                "must be 1"
            )
        if config.adaptive_chains:
            raise ValueError(
                "the control-variate estimator needs a fixed sweep width; "
                "adaptive_chains must be off"
            )
        cheap_cycles = int(cheap_cycles)
        if cheap_cycles < 2:
            raise ValueError("cheap_cycles must be at least 2")
        super().__init__(circuit, stimulus=stimulus, config=config, rng=rng)
        self.cheap_cycles = cheap_cycles
        self.sample_group_width = self.sampler.num_chains
        # Stopping operates on adjusted sweep means, so the min-samples floor
        # counts sweeps (raw floor scaled down by the sweep width).
        self._sweep_criterion = make_stopping_criterion(
            self.config.stopping_criterion,
            max_relative_error=self.config.max_relative_error,
            confidence=self.config.confidence,
            min_samples=max(16, -(-self.config.min_samples // self.sample_group_width)),
        )
        self.stopping_criterion = self._sweep_criterion

    # ------------------------------------------------------------- estimation
    def _control_adjusted(self, triples: np.ndarray) -> tuple[np.ndarray, float | None]:
        """Adjusted sweep means ``z`` and the effective sample size.

        ``beta`` is the regression coefficient of the sweep means on the
        mean-zero control differences, re-estimated from all sweeps so far
        (0 until two sweeps exist or the control is degenerate).
        """
        arr = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
        y = arr[:, 0]
        d = arr[:, 1] - arr[:, 2]
        beta = 0.0
        if len(arr) >= 2:
            var_d = float(d.var(ddof=1))
            if var_d > 0.0:
                beta = float(np.cov(y, d)[0, 1] / var_d)
        z = y - beta * d
        ess = None
        if len(arr) >= 2:
            var_y = float(y.var(ddof=1))
            var_z = float(z.var(ddof=1))
            if var_y > 0.0 and var_z > 0.0:
                ess = len(arr) * self.sample_group_width * var_y / var_z
        return z, ess

    def run(self, resume_from: RunCheckpoint | None = None) -> Iterator[ProgressEvent]:
        """Execute the control-variate flow incrementally (see base class).

        Checkpoints store the flat sweep triples ``(y, c_measured,
        c_reference) * sweeps`` in the ``samples`` slot; the ``method`` tag
        keeps them from being resumed by a plain DIPE estimator and vice
        versa.
        """
        config = self.config
        power_model = config.power_model
        circuit_name = self.circuit.name
        width = self.sample_group_width
        start_time = time.perf_counter()
        elapsed_before = 0.0

        if resume_from is None:
            yield RunStarted(
                circuit=circuit_name, method=self.method, samples_drawn=0, cycles_simulated=0
            )
            self.sampler.prepare(config.warmup_cycles)
            interval_result = select_independence_interval(self.sampler, config)
            triples = SampleBuffer()
        else:
            self._validate_checkpoint(resume_from)
            if resume_from.interval_selection is None:
                raise ValueError("control-variate checkpoints must carry the interval selection")
            if len(resume_from.samples) % 3 != 0:
                raise ValueError(
                    "control-variate checkpoints store sweep triples; "
                    f"got {len(resume_from.samples)} values (not a multiple of 3)"
                )
            elapsed_before = resume_from.elapsed_seconds
            self.sampler.set_state(resume_from.sampler_state)
            interval_result = resume_from.interval_selection
            triples = SampleBuffer(resume_from.samples)

        def raw_count() -> int:
            return (len(triples) // 3) * width

        self._samples = triples
        self._interval_result = interval_result
        self._elapsed_seconds = elapsed_before + (time.perf_counter() - start_time)
        interval = interval_result.interval
        yield IntervalSelected(
            circuit=circuit_name,
            method=self.method,
            samples_drawn=raw_count(),
            cycles_simulated=self.sampler.cycles_simulated,
            interval=interval,
            converged=interval_result.converged,
            num_trials=interval_result.num_trials,
            selection=interval_result,
        )

        sweeps_per_check = max(1, -(-config.check_interval // width))
        z, ess = self._control_adjusted(triples.view())
        decision = dataclasses.replace(self._sweep_criterion.evaluate(z), sample_size=raw_count())
        while not decision.should_stop and raw_count() < config.max_samples:
            for _ in range(sweeps_per_check):
                samples, controls, cheap_mean = self.sampler.next_samples_with_control(
                    interval, self.cheap_cycles
                )
                triples.extend(
                    (float(samples.mean()), float(controls.mean()), cheap_mean)
                )
            z, ess = self._control_adjusted(triples.view())
            decision = dataclasses.replace(
                self._sweep_criterion.evaluate(z), sample_size=raw_count()
            )
            self._elapsed_seconds = elapsed_before + (time.perf_counter() - start_time)
            yield SampleProgress(
                circuit=circuit_name,
                method=self.method,
                samples_drawn=raw_count(),
                cycles_simulated=self.sampler.cycles_simulated,
                running_mean_w=power_model.cycle_power(max(decision.estimate, 0.0)),
                lower_bound_w=power_model.cycle_power(max(decision.lower, 0.0)),
                upper_bound_w=power_model.cycle_power(max(decision.upper, 0.0)),
                relative_half_width=decision.relative_half_width,
                accuracy_met=decision.should_stop,
                num_workers=1,
                effective_sample_size=ess,
            )

        elapsed = elapsed_before + (time.perf_counter() - start_time)
        estimate = PowerEstimate(
            circuit_name=circuit_name,
            method=self.method,
            average_power_w=power_model.cycle_power(decision.estimate),
            lower_bound_w=power_model.cycle_power(max(decision.lower, 0.0)),
            upper_bound_w=power_model.cycle_power(max(decision.upper, 0.0)),
            relative_half_width=decision.relative_half_width,
            sample_size=raw_count(),
            independence_interval=interval,
            cycles_simulated=self.sampler.cycles_simulated,
            elapsed_seconds=elapsed,
            stopping_criterion=self._sweep_criterion.name,
            accuracy_met=decision.should_stop,
            interval_selection=interval_result,
            effective_sample_size=ess,
            samples_switched_capacitance_f=tuple(z.tolist()),
        )
        yield EstimateCompleted(
            circuit=circuit_name,
            method=self.method,
            samples_drawn=raw_count(),
            cycles_simulated=self.sampler.cycles_simulated,
            estimate=estimate,
        )
