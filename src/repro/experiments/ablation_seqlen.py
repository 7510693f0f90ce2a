"""Ablation C: sensitivity to the runs-test sequence length.

The paper argues the power-sequence length for the randomness test "should be
carefully selected": too short and the hypothesis-test outcome fluctuates,
too long and the interval search wastes simulation cycles; 320 is chosen
because "the gain in statistical stability of the test results is marginal if
it is any longer".  This ablation sweeps the sequence length and reports the
spread of the selected independence interval over repeated runs together with
the cycles spent in the selection procedure, making that trade-off visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.circuits.iscas89 import build_circuit
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.core.interval import select_independence_interval
from repro.stimulus.random_inputs import BernoulliStimulus
from repro.utils.rng import RandomSource, child_rngs, spawn_rng
from repro.utils.tables import TextTable

DEFAULT_SEQUENCE_LENGTHS = (80, 160, 320, 640, 1280)


@dataclass(frozen=True)
class SequenceLengthAblationRow:
    """Interval-selection statistics for one (circuit, sequence length) pair."""

    circuit: str
    sequence_length: int
    runs: int
    interval_min: int
    interval_max: int
    interval_avg: float
    interval_std: float
    mean_selection_cycles: float
    converged_fraction: float


@dataclass(frozen=True)
class SequenceLengthAblationResult:
    """All rows of the sequence-length ablation."""

    rows: tuple[SequenceLengthAblationRow, ...]
    config: EstimationConfig


def run_seqlen_ablation(
    circuit_names: Sequence[str] = ("s298", "s1494"),
    sequence_lengths: Sequence[int] = DEFAULT_SEQUENCE_LENGTHS,
    runs_per_setting: int = 20,
    config: EstimationConfig | None = None,
    seed: RandomSource = 2025,
) -> SequenceLengthAblationResult:
    """Sweep the runs-test sequence length and measure interval stability."""
    if runs_per_setting < 1:
        raise ValueError("runs_per_setting must be at least 1")
    config = config or EstimationConfig()
    master_rng = spawn_rng(seed)

    rows = []
    for name in circuit_names:
        circuit = build_circuit(name)
        for sequence_length in sequence_lengths:
            run_config = replace(config, randomness_sequence_length=sequence_length)
            intervals = []
            selection_cycles = []
            converged = 0
            for run_rng in child_rngs(int(master_rng.integers(0, 2**62)), runs_per_setting):
                sampler = BatchPowerSampler(
                    circuit,
                    BernoulliStimulus(circuit.num_inputs, 0.5),
                    run_config,
                    rng=run_rng,
                    num_chains=1,
                )
                sampler.prepare(run_config.warmup_cycles)
                selection = select_independence_interval(sampler, run_config)
                intervals.append(selection.interval)
                selection_cycles.append(selection.cycles_simulated)
                if selection.converged:
                    converged += 1

            mean_interval = sum(intervals) / len(intervals)
            variance = sum((i - mean_interval) ** 2 for i in intervals) / len(intervals)
            rows.append(
                SequenceLengthAblationRow(
                    circuit=name,
                    sequence_length=sequence_length,
                    runs=runs_per_setting,
                    interval_min=min(intervals),
                    interval_max=max(intervals),
                    interval_avg=mean_interval,
                    interval_std=variance**0.5,
                    mean_selection_cycles=sum(selection_cycles) / len(selection_cycles),
                    converged_fraction=converged / runs_per_setting,
                )
            )
    return SequenceLengthAblationResult(rows=tuple(rows), config=config)


def format_seqlen_ablation(result: SequenceLengthAblationResult) -> str:
    """Render the ablation as an aligned text table."""
    table = TextTable(
        headers=[
            "Circuit",
            "Seq len",
            "II_min",
            "II_max",
            "II_avg",
            "II_std",
            "Select cycles",
            "Converged",
        ],
        precision=2,
    )
    for row in result.rows:
        table.add_row(
            [
                row.circuit,
                row.sequence_length,
                row.interval_min,
                row.interval_max,
                row.interval_avg,
                row.interval_std,
                row.mean_selection_cycles,
                row.converged_fraction,
            ]
        )
    return table.render()
