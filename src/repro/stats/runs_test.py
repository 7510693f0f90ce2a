"""Ordinary runs test for randomness (Section III.A of the paper).

Given an ordered sequence over two symbols, a *run* is a maximal block of
identical symbols.  Under the hypothesis that the sequence is random (every
arrangement of the symbols equally likely), the number of runs ``U`` is
asymptotically normal with

    mean  = 1 + 2 m n / N
    stdev = sqrt( 2 m n (2 m n - N) / (N^2 (N - 1)) )

where ``m`` and ``n`` are the symbol counts and ``N = m + n``.  The test
statistic uses the continuity correction of Eq. (4); the hypothesis is
accepted at significance level ``alpha`` when ``|z| <= c`` with
``c = Phi^{-1}(1 - alpha / 2)`` (Eq. (7)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence


@dataclass(frozen=True)
class RunsTestResult:
    """Outcome of one ordinary runs test.

    Attributes
    ----------
    num_runs:
        Observed number of runs ``U``.
    num_first / num_second:
        Counts of the two symbols (``m`` and ``n`` in the paper).
    z_statistic:
        Continuity-corrected z value of Eq. (4).
    critical_value:
        Acceptance threshold ``c`` for the requested significance level.
    significance_level:
        The ``alpha`` used for the accept/reject decision.
    accepted:
        ``True`` when ``|z| <= c`` — the randomness hypothesis is retained.
    p_value:
        Two-sided p-value of the observed ``z``.
    degenerate:
        ``True`` when the sequence contained only one symbol, making the
        test statistic undefined; such sequences are treated as accepted
        (there is no evidence of serial dependence in a constant sequence)
        but flagged so callers can react.
    """

    num_runs: int
    num_first: int
    num_second: int
    z_statistic: float
    critical_value: float
    significance_level: float
    accepted: bool
    p_value: float
    degenerate: bool = False

    @property
    def sequence_length(self) -> int:
        """Total number of symbols tested (``N = m + n``)."""
        return self.num_first + self.num_second


@functools.lru_cache(maxsize=64)
def critical_value(significance_level: float) -> float:
    """Return ``c = Phi^{-1}(1 - alpha/2)`` for a two-sided test (Eq. (7))."""
    if not 0.0 < significance_level < 1.0:
        raise ValueError("significance_level must lie strictly between 0 and 1")
    return NormalDist().inv_cdf(1.0 - significance_level / 2.0)


def count_runs(symbols: Sequence[int]) -> int:
    """Count the number of runs (maximal blocks of identical symbols)."""
    if not symbols:
        return 0
    runs = 1
    previous = symbols[0]
    for symbol in symbols[1:]:
        if symbol != previous:
            runs += 1
            previous = symbol
    return runs


def runs_test(symbols: Sequence[int], significance_level: float = 0.20) -> RunsTestResult:
    """Run the ordinary runs test on a two-symbol sequence.

    Parameters
    ----------
    symbols:
        Ordered sequence of symbols; every element must be 0 or 1.
    significance_level:
        Probability of rejecting the randomness hypothesis when it is true
        (the paper uses 0.20).
    """
    if len(symbols) < 2:
        raise ValueError("runs test requires at least two symbols")
    for symbol in symbols:
        if symbol not in (0, 1):
            raise ValueError("symbols must be 0 or 1; dichotomise real values first")

    threshold = critical_value(significance_level)
    m = sum(1 for symbol in symbols if symbol == 0)
    n = len(symbols) - m
    total = m + n
    num_runs = count_runs(symbols)

    if m == 0 or n == 0:
        # A constant sequence carries no information about serial dependence;
        # accept but mark the result degenerate.
        return RunsTestResult(
            num_runs=num_runs,
            num_first=m,
            num_second=n,
            z_statistic=0.0,
            critical_value=threshold,
            significance_level=significance_level,
            accepted=True,
            p_value=1.0,
            degenerate=True,
        )

    mean_runs = 1.0 + 2.0 * m * n / total
    variance = (2.0 * m * n * (2.0 * m * n - total)) / (total * total * (total - 1.0))
    if variance <= 0.0:
        # Only possible for tiny, extremely unbalanced sequences.
        return RunsTestResult(
            num_runs=num_runs,
            num_first=m,
            num_second=n,
            z_statistic=0.0,
            critical_value=threshold,
            significance_level=significance_level,
            accepted=True,
            p_value=1.0,
            degenerate=True,
        )
    stdev = math.sqrt(variance)

    # Continuity correction of Eq. (4): shrink |U - mean| by 0.5.
    if num_runs < mean_runs:
        z = (num_runs + 0.5 - mean_runs) / stdev
    elif num_runs > mean_runs:
        z = (num_runs - 0.5 - mean_runs) / stdev
    else:
        z = 0.0

    # Two-sided tail 2 (1 - Phi(|z|)), without the cancellation of 1 - Phi.
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return RunsTestResult(
        num_runs=num_runs,
        num_first=m,
        num_second=n,
        z_statistic=z,
        critical_value=threshold,
        significance_level=significance_level,
        accepted=abs(z) <= threshold,
        p_value=p_value,
        degenerate=False,
    )
