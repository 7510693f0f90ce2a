"""Sweep-grouped wrapper making stopping criteria valid for coupled draws.

Every base stopping criterion assumes an i.i.d. sample.  When a
lane-coupled variance-reduction stimulus (``repro.variance.stimuli``) drives
the multi-chain sampler, samples within one sweep — one block of
``num_chains`` consecutive draws — are deliberately correlated, and feeding
them to an i.i.d. criterion would produce an invalid (usually
anti-conservative for positive, over-conservative for negative correlation)
confidence interval.  Sweep *means*, however, are honest i.i.d. replicates:
each sweep is produced by fresh independent randomness on top of the
coupling structure.

:class:`GroupedStoppingCriterion` therefore collapses the flat sample into
consecutive group means of width ``group_width`` and delegates to the
wrapped criterion on those means.  Because the coupling lowers the group
mean variance *below* the i.i.d. level, the grouped interval closes with
fewer raw samples than the flat interval would on independent draws — the
whole point of the variance subsystem.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.stats.stopping.base import StoppingCriterion, StoppingDecision

__all__ = ["GroupedStoppingCriterion"]


class GroupedStoppingCriterion(StoppingCriterion):
    """Evaluate a wrapped criterion on consecutive group means.

    Parameters
    ----------
    inner:
        The criterion applied to the group means (its ``min_samples`` counts
        *groups*, so callers typically scale the raw floor down by
        ``group_width``).
    group_width:
        Samples per group, in draw order; must match the sampler's sweep
        width.  A trailing partial group is ignored until it completes.

    The decision's ``sample_size`` reports the *raw* sample count so
    progress reporting and ``max_samples`` budgeting stay in raw-sample
    units; estimate, bounds and relative half-width come from the grouped
    interval.
    """

    def __init__(self, inner: StoppingCriterion, group_width: int):
        if group_width < 1:
            raise ValueError("group_width must be at least 1")
        super().__init__(
            max_relative_error=inner.max_relative_error,
            confidence=inner.confidence,
            min_samples=inner.min_samples,
        )
        self.inner = inner
        self.group_width = int(group_width)
        self.name = f"grouped-{inner.name}"

    def _group_means(self, sample: Sequence[float]) -> np.ndarray:
        data = np.asarray(sample, dtype=float)
        width = self.group_width
        groups = data.size // width
        # A fixed left-to-right fold per group: unlike the built-in sum()
        # (compensated since Python 3.12), it rounds the same on every Python.
        sums = np.add.accumulate(data[: groups * width].reshape(groups, width), axis=1)
        return sums[:, -1] / width

    def interval(self, sample: Sequence[float]) -> tuple[float, float, float]:
        return self.inner.interval(self._group_means(sample))

    def evaluate(self, sample: Sequence[float]) -> StoppingDecision:
        decision = self.inner.evaluate(self._group_means(sample))
        return dataclasses.replace(decision, sample_size=len(sample))

    def describe(self) -> str:
        return f"{self.inner.describe()} on sweep means of {self.group_width}"
