"""repro — reproduction of "Statistical Estimation of Average Power Dissipation
in Sequential Circuits" (Yuan, Teng, Kang; DAC 1997).

The package implements DIPE, the paper's distribution-independent power
estimation flow, together with every substrate it needs: a gate-level netlist
model with an ISCAS89 ``.bench`` parser, zero-delay and event-driven logic
simulators, power and capacitance models, input-pattern generators, FSM /
Markov-chain analysis for ground truth, the runs test and independence
interval selection, three stopping criteria, baseline estimators, and
experiment harnesses regenerating the paper's Tables 1–2 and Figure 3.

Quickstart::

    from repro import build_circuit, estimate_average_power

    circuit = build_circuit("s298")
    estimate = estimate_average_power(circuit, rng=1)
    print(estimate.average_power_mw, estimate.independence_interval)

The job-oriented API in :mod:`repro.api` is the preferred entry surface::

    from repro import JobSpec, run_job

    result = run_job(JobSpec(circuit="s298", seed=1))
    print(result.estimate.average_power_mw)
"""

from repro.api.batch import BatchResult, BatchRunner, run_batch
from repro.api.checkpoint import RunCheckpoint
from repro.api.events import ProgressEvent
from repro.api.jobs import JobResult, JobSpec, StimulusSpec, run_job
from repro.api.registry import (
    register_estimator,
    register_stimulus,
    register_stopping_criterion,
)
from repro.circuits import CircuitProgram, build_circuit, list_circuits
from repro.core import (
    ConsecutiveCycleEstimator,
    DipeEstimator,
    EstimationConfig,
    FixedWarmupEstimator,
    PowerEstimate,
    PowerSampler,
    estimate_average_power,
    select_independence_interval,
)
from repro.netlist import Netlist, parse_bench, parse_bench_file, write_bench
from repro.power import CapacitanceModel, PowerModel, estimate_reference_power
from repro.simulation import CompiledCircuit, EventDrivenSimulator, ZeroDelaySimulator
from repro.stats import runs_test, runs_test_on_values
from repro.stimulus import (
    BernoulliStimulus,
    LagOneMarkovStimulus,
    SequenceStimulus,
    SpatiallyCorrelatedStimulus,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    # job-oriented API
    "JobSpec",
    "StimulusSpec",
    "JobResult",
    "run_job",
    "BatchRunner",
    "BatchResult",
    "run_batch",
    "ProgressEvent",
    "RunCheckpoint",
    "register_estimator",
    "register_stimulus",
    "register_stopping_criterion",
    # circuits
    "build_circuit",
    "CircuitProgram",
    "list_circuits",
    # core estimators
    "DipeEstimator",
    "estimate_average_power",
    "EstimationConfig",
    "PowerEstimate",
    "PowerSampler",
    "select_independence_interval",
    "ConsecutiveCycleEstimator",
    "FixedWarmupEstimator",
    # netlist
    "Netlist",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    # power
    "PowerModel",
    "CapacitanceModel",
    "estimate_reference_power",
    # simulation
    "CompiledCircuit",
    "ZeroDelaySimulator",
    "EventDrivenSimulator",
    # statistics
    "runs_test",
    "runs_test_on_values",
    # stimulus
    "BernoulliStimulus",
    "LagOneMarkovStimulus",
    "SpatiallyCorrelatedStimulus",
    "SequenceStimulus",
]
