"""Distribution-independent stopping criterion based on order statistics.

This is the criterion the paper adopts (its reference [7], "Statistical
estimation of average power dissipation in CMOS VLSI circuits using
nonparametric techniques").  The original derivation is not reproduced in the
DAC paper, so this module implements a faithful reconstruction with the same
two properties the paper relies on:

* it is **distribution-independent** — no normality (or any other shape)
  assumption on the per-cycle power distribution is needed; and
* it offers a **tradeoff between robustness and efficiency** that sits
  between the parametric CLT rule and the very conservative
  Kolmogorov–Smirnov rule.

Construction: the sample is grouped into ``num_batches`` equal batches and
the batch means are computed.  For i.i.d. samples the batch means are i.i.d.
and (nearly) symmetric about the true mean, so a distribution-free confidence
interval for their median — given by binomial order statistics,
``P( X_(r) <= median <= X_(k-r+1) ) = 1 - 2 * BinomCDF(r-1; k, 1/2)`` —
is also a confidence interval for the mean.  The criterion stops when that
interval's half-width relative to the overall sample mean is below the error
specification.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.stats.stopping.base import StoppingCriterion


@functools.lru_cache(maxsize=1024)
def _order_statistic_rank(num_batches: int, confidence: float) -> int | None:
    """Memoized body of :meth:`OrderStatisticStoppingCriterion.order_statistic_rank`.

    The coverage ``1 - 2 * BinomCDF(r-1; k, 1/2)`` of ``[X_(r), X_(k-r+1)]``
    shrinks as ``r`` grows.  The binomial tail is summed exactly in integers;
    only its ratio to ``2**k`` is rounded (once, correctly).
    """
    total = 1 << num_batches
    tail = 0
    best_rank = None
    for rank in range(1, num_batches // 2 + 1):
        tail += math.comb(num_batches, rank - 1)
        if 1.0 - 2.0 * (tail / total) < confidence:
            break
        best_rank = rank
    return best_rank


class OrderStatisticStoppingCriterion(StoppingCriterion):
    """Distribution-free order-statistics confidence interval on batch means."""

    name = "order-statistic"

    def __init__(
        self,
        max_relative_error: float = 0.05,
        confidence: float = 0.99,
        min_samples: int = 64,
        num_batches: int = 16,
    ):
        super().__init__(
            max_relative_error=max_relative_error,
            confidence=confidence,
            min_samples=min_samples,
        )
        if num_batches < 8:
            raise ValueError(
                "num_batches must be at least 8 so the order-statistic interval can "
                "reach useful confidence levels"
            )
        self.num_batches = num_batches

    # ------------------------------------------------------------------ parts
    def batch_means(self, sample: Sequence[float]) -> np.ndarray:
        """Split *sample* into ``num_batches`` contiguous batches and average each.

        Trailing samples that do not fill a complete batch are folded into
        the last batch so no observation is discarded.
        """
        data = np.asarray(sample, dtype=float)
        if data.size < self.num_batches:
            return data
        batch_size = data.size // self.num_batches
        last = (self.num_batches - 1) * batch_size
        # Row means of the reshaped prefix equal per-slice means bit for bit.
        head = data[:last].reshape(self.num_batches - 1, batch_size).mean(axis=1)
        return np.append(head, data[last:].mean())

    def order_statistic_rank(self, num_batches: int) -> int | None:
        """Largest rank ``r`` whose symmetric interval reaches the confidence level.

        Returns ``None`` when even the full range (r = 1) does not cover the
        requested confidence, i.e. the sample is still too small.
        """
        return _order_statistic_rank(num_batches, self.confidence)

    # ------------------------------------------------------------------ main
    def interval(self, sample: Sequence[float]) -> tuple[float, float, float]:
        data = np.asarray(sample, dtype=float)
        estimate = float(data.mean())
        means = np.sort(self.batch_means(data))
        rank = self.order_statistic_rank(means.size)
        if rank is None:
            # Not enough batches yet for the requested confidence: return an
            # interval spanning the observed batch means, which can never
            # satisfy a tight error specification and therefore keeps sampling.
            if means.size == 0:
                return estimate, estimate, estimate
            return estimate, float(means.min()), float(means.max())
        lower = float(means[rank - 1])
        upper = float(means[means.size - rank])
        return estimate, lower, upper
