"""Nonparametric stopping criterion based on the Kolmogorov–Smirnov statistic.

The paper's reference [6] builds a stopping rule on the Kolmogorov–Smirnov
distance between the empirical CDF and the (unknown) true CDF.  This module
implements that idea through the Dvoretzky–Kiefer–Wolfowitz (DKW) inequality:
with probability at least ``1 - delta`` the true CDF lies within

    epsilon_n = sqrt( ln(2 / delta) / (2 n) )

of the empirical CDF everywhere.  For a random variable supported on the
observed range ``[a, b]`` the identity ``E[X] = b - integral_a^b F(x) dx``
then yields simultaneous upper and lower bounds on the mean.  The criterion
stops when the resulting interval is relatively tight.

Using the observed minimum and maximum as the support is the standard
practical compromise (per-cycle power is bounded above by switching the whole
circuit); it makes the rule slightly optimistic in the extreme tails but it
remains far more conservative than the CLT rule, which is exactly the
robustness/efficiency ordering the paper describes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.stats.stopping.base import StoppingCriterion


class KolmogorovSmirnovStoppingCriterion(StoppingCriterion):
    """DKW-band bounds on the mean of a bounded sample (nonparametric)."""

    name = "kolmogorov-smirnov"

    def dkw_epsilon(self, sample_size: int) -> float:
        """Half-width of the DKW band for the configured confidence."""
        if sample_size < 1:
            return float("inf")
        delta = 1.0 - self.confidence
        return math.sqrt(math.log(2.0 / delta) / (2.0 * sample_size))

    def interval(self, sample: Sequence[float]) -> tuple[float, float, float]:
        data = np.sort(np.asarray(sample, dtype=float))
        estimate = float(data.mean())
        size = data.size
        if size < 2:
            return estimate, estimate, estimate
        epsilon = self.dkw_epsilon(size)
        if epsilon >= 1.0:
            return estimate, float(data.min()), float(data.max())

        minimum = float(data[0])
        maximum = float(data[-1])
        # E[X] = b - integral_a^b F(x) dx, evaluated on the empirical CDF steps.
        # The empirical CDF equals i/n on [x_(i), x_(i+1)).
        widths = np.diff(data)
        steps = np.arange(1, size, dtype=float) / size  # F-hat on each interval
        upper_cdf = np.clip(steps + epsilon, 0.0, 1.0)
        lower_cdf = np.clip(steps - epsilon, 0.0, 1.0)
        mean_lower = maximum - float(np.dot(upper_cdf, widths))
        mean_upper = maximum - float(np.dot(lower_cdf, widths))
        mean_lower = max(mean_lower, minimum)
        mean_upper = min(mean_upper, maximum)
        return estimate, mean_lower, mean_upper
