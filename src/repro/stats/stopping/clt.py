"""Parametric stopping criterion based on the central-limit theorem.

This is the criterion of the classic Monte-Carlo power estimators (Burch,
Najm et al.; the paper's references [1] and [11]): treat the sample mean as
normally distributed, build a Student-t confidence interval, and stop when
its half-width relative to the mean drops below the error specification.  It
is efficient but its coverage depends on near-normality of the sample mean;
the paper prefers a distribution-independent rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.stats.distributions import t_quantile
from repro.stats.stopping.base import StoppingCriterion


class CltStoppingCriterion(StoppingCriterion):
    """Student-t confidence interval on the mean (parametric)."""

    name = "clt"

    def interval(self, sample: Sequence[float]) -> tuple[float, float, float]:
        data = np.asarray(sample, dtype=float)
        mean = float(data.mean())
        if data.size < 2:
            return mean, mean, mean
        std = float(data.std(ddof=1))
        if std == 0.0:
            return mean, mean, mean
        quantile = t_quantile(1.0 - (1.0 - self.confidence) / 2.0, data.size - 1)
        half_width = quantile * std / np.sqrt(data.size)
        return mean, mean - half_width, mean + half_width
