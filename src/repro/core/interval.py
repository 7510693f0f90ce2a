"""Sequential selection of the independence interval (Fig. 2 of the paper).

Starting from a trial interval of zero, the procedure collects an ordered
power sequence whose adjacent entries are separated by the trial interval,
dichotomises it about its median and applies the ordinary runs test at the
user's significance level.  If the randomness hypothesis is rejected, the
interval is incremented by one clock cycle and a fresh sequence is collected;
otherwise the current interval is returned and used to generate the random
power sample for mean estimation.
"""

from __future__ import annotations

from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.core.results import IntervalSelectionResult, IntervalTrial
from repro.stats.randomness import runs_test_on_values


def select_independence_interval(
    sampler: BatchPowerSampler,
    config: EstimationConfig | None = None,
) -> IntervalSelectionResult:
    """Run the sequential interval-selection procedure on *sampler*.

    Returns an :class:`IntervalSelectionResult`; when no trial interval up to
    ``config.max_independence_interval`` passes the runs test the result has
    ``converged=False`` and carries the largest trial interval, so estimation
    can still proceed (with a warning surfaced by the caller).
    """
    config = config or sampler.config
    start_cycles = sampler.cycles_simulated
    trials: list[IntervalTrial] = []

    for trial_interval in range(config.max_independence_interval + 1):
        sequence = sampler.collect_sequence(
            interval=trial_interval, length=config.randomness_sequence_length
        )
        test = runs_test_on_values(sequence, significance_level=config.significance_level)
        trials.append(
            IntervalTrial(
                interval=trial_interval,
                z_statistic=test.z_statistic,
                accepted=test.accepted,
                sequence_length=len(sequence),
            )
        )
        if test.accepted:
            return IntervalSelectionResult(
                interval=trial_interval,
                converged=True,
                trials=tuple(trials),
                significance_level=config.significance_level,
                cycles_simulated=sampler.cycles_simulated - start_cycles,
            )

    return IntervalSelectionResult(
        interval=config.max_independence_interval,
        converged=False,
        trials=tuple(trials),
        significance_level=config.significance_level,
        cycles_simulated=sampler.cycles_simulated - start_cycles,
    )


def z_statistic_profile(
    sampler: BatchPowerSampler,
    max_interval: int,
    sequence_length: int,
    significance_level: float = 0.20,
) -> list[tuple[int, float, bool]]:
    """Measure the runs-test z statistic for every trial interval up to *max_interval*.

    This is the sweep behind Figure 3 of the paper (z statistic versus trial
    interval length for circuit s1494 with a sequence length of 10,000).
    Returns ``(interval, z_statistic, accepted)`` triples.
    """
    profile = []
    for interval in range(max_interval + 1):
        sequence = sampler.collect_sequence(interval=interval, length=sequence_length)
        test = runs_test_on_values(sequence, significance_level=significance_level)
        profile.append((interval, test.z_statistic, test.accepted))
    return profile
