"""The standard-library statistics checked against scipy as an oracle.

The package computes its normal, binomial and Student-t quantities without
scipy; these tests compare them with scipy when it is installed (the
``test`` extra brings it in) and skip otherwise.
"""

import math

import numpy as np
import pytest

from repro.stats.distributions import t_quantile
from repro.stats.runs_test import critical_value, runs_test
from repro.stats.stopping import OrderStatisticStoppingCriterion

#: Confidence levels of the oracle grids: every 0.0005 from 0.80 to 0.999.
CONFIDENCES = np.round(np.arange(0.8, 0.99925, 0.0005), 4)


def test_critical_value_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9):
        expected = float(stats.norm.ppf(1.0 - alpha / 2.0))
        assert critical_value(alpha) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_runs_test_p_value_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for length in (20, 64, 320, 2000):
        for stickiness in (0.0, 0.3, 0.6):
            symbols = [int(rng.integers(0, 2))]
            for _ in range(length - 1):
                stay = rng.random() < stickiness
                symbols.append(symbols[-1] if stay else int(rng.integers(0, 2)))
            result = runs_test(symbols)
            if result.degenerate:
                continue
            expected = 2.0 * float(stats.norm.sf(abs(result.z_statistic)))
            assert result.p_value == pytest.approx(expected, rel=1e-13)


def test_order_statistic_ranks_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    cells = 0
    for num_batches in range(8, 257):
        ranks = np.arange(1, num_batches // 2 + 1)
        coverage = 1.0 - 2.0 * stats.binom.cdf(ranks - 1, num_batches, 0.5)
        reached = coverage[None, :] >= CONFIDENCES[:, None]
        # The rank is the last r before the first coverage below the level.
        expected = np.where(reached.all(axis=1), ranks.size, reached.argmin(axis=1))
        for confidence, rank in zip(CONFIDENCES, expected):
            criterion = OrderStatisticStoppingCriterion(
                confidence=float(confidence), num_batches=num_batches
            )
            got = criterion.order_statistic_rank(num_batches)
            assert (got or 0) == rank, (num_batches, confidence)
            cells += 1
    assert cells == 249 * CONFIDENCES.size


def test_t_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    dfs = sorted(
        {*range(1, 64), *np.unique(np.logspace(np.log10(64), 7, 160).astype(int)).tolist(),
         999, 1000, 1001}
    )
    worst = 0.0
    for confidence in (0.8, 0.9, 0.95, 0.99, 0.995, 0.999):
        p = 1.0 - (1.0 - confidence) / 2.0
        for df in dfs:
            expected = float(stats.t.ppf(p, df))
            worst = max(worst, abs(t_quantile(p, df) - expected) / expected)
    assert worst <= 1e-12, worst


def test_t_quantile_below_the_median_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in (2, 5, 50, 5000):
        expected = float(stats.t.ppf(0.1, df))
        assert math.isclose(t_quantile(0.1, df), expected, rel_tol=1e-12)
