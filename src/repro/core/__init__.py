"""The DIPE estimator: the paper's primary contribution.

:class:`~repro.core.dipe.DipeEstimator` ties the substrates together into the
flow of Fig. 1 of the paper: warm-up, independence-interval selection by the
runs test (Fig. 2), two-phase random power sampling, and a
distribution-independent stopping criterion.  :mod:`repro.core.baselines`
provides the comparison estimators (consecutive-cycle Monte Carlo and a fixed
a-priori warm-up scheme) used in the ablation experiments.
"""

from repro.core.baselines import (
    ConsecutiveCycleEstimator,
    FixedWarmupEstimator,
)
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.core.dipe import DipeEstimator, estimate_average_power
from repro.core.interval import select_independence_interval
from repro.core.results import IntervalSelectionResult, IntervalTrial, PowerEstimate
from repro.core.sharded_sampler import ShardedPowerSampler

__all__ = [
    "EstimationConfig",
    "IntervalSelectionResult",
    "IntervalTrial",
    "PowerEstimate",
    "BatchPowerSampler",
    "ShardedPowerSampler",
    "select_independence_interval",
    "DipeEstimator",
    "estimate_average_power",
    "ConsecutiveCycleEstimator",
    "FixedWarmupEstimator",
]
