"""Figure 3 of the paper: runs-test z statistic versus trial interval length.

The paper plots the z statistic of the runs test for circuit ``s1494`` over
trial intervals from 0 to 30 clock cycles with a power sequence of length
10,000: the statistic starts large (strong serial correlation at interval 0)
and decays below the acceptance threshold within a few cycles, illustrating
the phi-mixing behaviour the method relies on.

The sweep is implemented as a registered estimator kind
(``"figure3-profile"``), so it participates in the job-oriented API: a sweep
is described by a serializable :class:`~repro.api.jobs.JobSpec`
(:func:`figure3_job`), can be batched by the
:class:`~repro.api.batch.BatchRunner`, and streams one
:class:`~repro.api.events.IntervalTrialEvent` per measured interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.api.events import (
    EstimateCompleted,
    IntervalTrialEvent,
    ProgressEvent,
    RunStarted,
)
from repro.api.jobs import JobSpec, StimulusSpec, register_result_type, run_job
from repro.api.protocol import StreamingEstimator
from repro.api.registry import register_estimator
from repro.circuits.program import as_compiled_circuit
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.netlist.netlist import Netlist
from repro.simulation.compiled import CompiledCircuit
from repro.stats.randomness import runs_test_on_values
from repro.stats.runs_test import critical_value
from repro.stimulus.base import Stimulus
from repro.stimulus.random_inputs import BernoulliStimulus
from repro.utils.rng import RandomSource


@dataclass(frozen=True)
class Figure3Point:
    """One point of the Figure 3 curve."""

    interval: int
    z_statistic: float
    accepted: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "z_statistic": self.z_statistic,
            "accepted": self.accepted,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Figure3Point":
        return cls(**data)


@dataclass(frozen=True)
class Figure3Result:
    """The full z-statistic profile plus the settings it was measured with."""

    circuit: str
    sequence_length: int
    significance_level: float
    acceptance_threshold: float
    points: tuple[Figure3Point, ...]

    def first_accepted_interval(self) -> int | None:
        """Smallest interval whose sequence passes the runs test (None if none)."""
        for point in self.points:
            if point.accepted:
                return point.interval
        return None

    def series(self) -> tuple[list[int], list[float]]:
        """Return ``(intervals, z_values)`` ready for plotting."""
        return (
            [point.interval for point in self.points],
            [point.z_statistic for point in self.points],
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "circuit": self.circuit,
            "sequence_length": self.sequence_length,
            "significance_level": self.significance_level,
            "acceptance_threshold": self.acceptance_threshold,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Figure3Result":
        return cls(
            circuit=data["circuit"],
            sequence_length=data["sequence_length"],
            significance_level=data["significance_level"],
            acceptance_threshold=data["acceptance_threshold"],
            points=tuple(Figure3Point.from_dict(point) for point in data["points"]),
        )


register_result_type("figure3-profile", Figure3Result)


@register_estimator("figure3-profile")
class Figure3Estimator(StreamingEstimator):
    """Estimator-protocol adapter for the Figure 3 z-statistic sweep.

    Speaks the same incremental protocol as the mean estimators — ``run()``
    yields a :class:`RunStarted`, one :class:`IntervalTrialEvent` per trial
    interval and an :class:`EstimateCompleted` whose ``estimate`` is the
    :class:`Figure3Result` — so sweeps can be dispatched through
    :func:`repro.api.run_job` and batched alongside power-estimation jobs.

    Parameters
    ----------
    circuit:
        Compiled circuit (or netlist) to sweep.
    stimulus / config / rng:
        As for :class:`~repro.core.dipe.DipeEstimator`.
    max_interval:
        Largest trial interval measured (paper: 30).
    sequence_length:
        Power-sequence length per interval (paper: 10,000).
    significance_level:
        Runs-test significance level; defaults to the configuration's value.
    """

    method = "figure3-profile"

    def __init__(
        self,
        circuit: CompiledCircuit | Netlist,
        stimulus: Stimulus | None = None,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
        max_interval: int = 30,
        sequence_length: int = 10_000,
        significance_level: float | None = None,
    ):
        if max_interval < 0:
            raise ValueError("max_interval must be non-negative")
        if sequence_length < 1:
            raise ValueError("sequence_length must be at least 1")
        circuit = as_compiled_circuit(circuit)
        self.circuit = circuit
        self.config = config or EstimationConfig()
        self.stimulus = stimulus or BernoulliStimulus(circuit.num_inputs, 0.5)
        self.max_interval = max_interval
        self.sequence_length = sequence_length
        self.significance_level = (
            self.config.significance_level if significance_level is None else significance_level
        )
        self.sampler = BatchPowerSampler(circuit, self.stimulus, self.config, rng=rng, num_chains=1)

    def run(self, resume_from=None) -> Iterator[ProgressEvent]:
        """Measure the profile incrementally, one interval per event."""
        if resume_from is not None:
            raise ValueError("the figure3-profile sweep does not support checkpoint resume")
        circuit_name = self.circuit.name
        yield RunStarted(
            circuit=circuit_name, method=self.method, samples_drawn=0, cycles_simulated=0
        )
        self.sampler.prepare(self.config.warmup_cycles)
        points: list[Figure3Point] = []
        for interval in range(self.max_interval + 1):
            sequence = self.sampler.collect_sequence(
                interval=interval, length=self.sequence_length
            )
            test = runs_test_on_values(sequence, significance_level=self.significance_level)
            points.append(
                Figure3Point(
                    interval=interval, z_statistic=abs(test.z_statistic), accepted=test.accepted
                )
            )
            yield IntervalTrialEvent(
                circuit=circuit_name,
                method=self.method,
                samples_drawn=len(points) * self.sequence_length,
                cycles_simulated=self.sampler.cycles_simulated,
                interval=interval,
                z_statistic=abs(test.z_statistic),
                accepted=test.accepted,
            )
        result = Figure3Result(
            circuit=circuit_name,
            sequence_length=self.sequence_length,
            significance_level=self.significance_level,
            acceptance_threshold=critical_value(self.significance_level),
            points=tuple(points),
        )
        yield EstimateCompleted(
            circuit=circuit_name,
            method=self.method,
            samples_drawn=len(points) * self.sequence_length,
            cycles_simulated=self.sampler.cycles_simulated,
            estimate=result,
        )

def figure3_job(
    circuit_name: str = "s1494",
    max_interval: int = 30,
    sequence_length: int = 10_000,
    significance_level: float = 0.20,
    config: EstimationConfig | None = None,
    seed: int = 2025,
    input_probability: float = 0.5,
) -> JobSpec:
    """Build the serializable :class:`JobSpec` describing a Figure 3 sweep."""
    return JobSpec(
        circuit=circuit_name,
        estimator="figure3-profile",
        stimulus=StimulusSpec.bernoulli(input_probability),
        config=config or EstimationConfig(),
        seed=int(seed),
        params={
            "max_interval": max_interval,
            "sequence_length": sequence_length,
            "significance_level": significance_level,
        },
        label=f"figure3:{circuit_name}",
    )


def run_figure3(
    circuit_name: str = "s1494",
    max_interval: int = 30,
    sequence_length: int = 10_000,
    significance_level: float = 0.20,
    config: EstimationConfig | None = None,
    seed: RandomSource = 2025,
    input_probability: float = 0.5,
) -> Figure3Result:
    """Regenerate Figure 3 (z statistic as a function of the trial interval).

    The paper's plot uses ``s1494`` and a sequence length of 10,000; both are
    parameters here so quick versions can be produced in the benchmarks.
    Integer seeds go through the serializable job path (:func:`figure3_job` +
    :func:`repro.api.run_job`); generator seeds fall back to direct
    construction since they cannot be serialized.
    """
    if isinstance(seed, (int, np.integer)):
        spec = figure3_job(
            circuit_name=circuit_name,
            max_interval=max_interval,
            sequence_length=sequence_length,
            significance_level=significance_level,
            config=config,
            seed=int(seed),
            input_probability=input_probability,
        )
        return run_job(spec).result
    from repro.circuits.iscas89 import build_circuit

    circuit = build_circuit(circuit_name)
    estimator = Figure3Estimator(
        circuit,
        stimulus=BernoulliStimulus(circuit.num_inputs, input_probability),
        config=config,
        rng=seed,
        max_interval=max_interval,
        sequence_length=sequence_length,
        significance_level=significance_level,
    )
    return estimator.estimate()


def format_figure3(result: Figure3Result) -> str:
    """Render the Figure 3 series as a table plus a crude ASCII plot."""
    from repro.utils.tables import TextTable

    table = TextTable(headers=["Interval", "|z|", "Accepted"], precision=2)
    for point in result.points:
        table.add_row([point.interval, point.z_statistic, "yes" if point.accepted else "no"])

    max_z = max((point.z_statistic for point in result.points), default=1.0)
    scale = 60.0 / max_z if max_z > 0 else 1.0
    plot_lines = [
        f"{point.interval:3d} | " + "#" * max(1, int(round(point.z_statistic * scale)))
        for point in result.points
    ]
    header = (
        f"Circuit {result.circuit}, sequence length {result.sequence_length}, "
        f"acceptance threshold |z| <= {result.acceptance_threshold:.3f}"
    )
    return header + "\n\n" + table.render() + "\n\n" + "\n".join(plot_lines)
