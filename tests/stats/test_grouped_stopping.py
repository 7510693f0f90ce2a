"""Unit tests for the sweep-grouped stopping-criterion wrapper."""

import numpy as np
import pytest

from repro.stats.stopping import (
    GroupedStoppingCriterion,
    OrderStatisticStoppingCriterion,
    make_stopping_criterion,
)


def _inner(min_samples=4):
    return OrderStatisticStoppingCriterion(
        max_relative_error=0.05, confidence=0.95, min_samples=min_samples
    )


class TestGroupedStoppingCriterion:
    def test_group_width_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            GroupedStoppingCriterion(_inner(), 0)

    def test_name_and_describe(self):
        grouped = GroupedStoppingCriterion(_inner(), 8)
        assert grouped.name == "grouped-order-statistic"
        assert "sweep means of 8" in grouped.describe()

    def test_evaluates_on_group_means(self):
        grouped = GroupedStoppingCriterion(_inner(), 4)
        rng = np.random.default_rng(0)
        sample = rng.normal(loc=10.0, scale=1.0, size=400).tolist()
        decision = grouped.evaluate(sample)
        means = np.asarray(sample).reshape(100, 4).mean(axis=1)
        inner_decision = _inner().evaluate(means.tolist())
        assert decision.estimate == inner_decision.estimate
        assert decision.lower == inner_decision.lower
        assert decision.upper == inner_decision.upper
        # ...but the reported size stays in raw-sample units.
        assert decision.sample_size == 400

    def test_trailing_partial_group_is_ignored(self):
        grouped = GroupedStoppingCriterion(_inner(), 4)
        sample = [1.0, 2.0, 3.0, 4.0, 99.0]
        decision = grouped.evaluate(sample)
        assert decision.estimate == pytest.approx(2.5)
        assert decision.sample_size == 5

    def test_empty_sample(self):
        decision = GroupedStoppingCriterion(_inner(), 4).evaluate([])
        assert not decision.should_stop
        assert decision.sample_size == 0

    def test_interval_delegates_to_inner(self):
        grouped = GroupedStoppingCriterion(_inner(), 2)
        rng = np.random.default_rng(1)
        sample = rng.normal(loc=5.0, size=200).tolist()
        means = np.asarray(sample).reshape(100, 2).mean(axis=1)
        assert grouped.interval(sample) == _inner().interval(means.tolist())

    def test_anticorrelated_groups_stop_earlier_than_flat(self):
        # Perfect pairing: (x, 2m - x) pairs make every group mean exactly m,
        # so the grouped CLT interval collapses immediately while the flat
        # CLT interval on the same raw draws is still wide.  (The flat
        # order-statistic criterion would also collapse here — symmetric
        # pairs pin the median — hence CLT for the flat comparison.)
        rng = np.random.default_rng(2)
        x = rng.normal(loc=10.0, scale=5.0, size=64)
        sample = np.stack([x, 20.0 - x], axis=1).reshape(-1).tolist()
        grouped = GroupedStoppingCriterion(
            make_stopping_criterion("clt", min_samples=16), 2
        )
        flat = make_stopping_criterion("clt", min_samples=32)
        assert grouped.evaluate(sample).should_stop
        assert not flat.evaluate(sample).should_stop

    def test_composes_with_factory_criteria(self):
        for name in ("order-statistic", "clt", "ks"):
            inner = make_stopping_criterion(name, min_samples=4)
            grouped = GroupedStoppingCriterion(inner, 4)
            decision = grouped.evaluate([1.0, 2.0, 1.0, 2.0] * 20)
            assert decision.sample_size == 80

    def test_group_means_fold_left_to_right_on_every_python(self):
        # A left fold gives (((1e16 + 1) - 1e16) + 1) = 1.0; the compensated
        # built-in sum() of Python 3.12+ would give 2.0 and a mean of 0.5.
        grouped = GroupedStoppingCriterion(_inner(), 4)
        assert grouped._group_means([1e16, 1.0, -1e16, 1.0]).tolist() == [0.25]

    def test_group_means_equal_sequential_sums(self):
        grouped = GroupedStoppingCriterion(_inner(), 8)
        rng = np.random.default_rng(3)
        sample = (rng.exponential(1e-12, size=803) * 1e3).tolist()
        expected = []
        for start in range(0, 800, 8):
            total = 0.0
            for value in sample[start : start + 8]:
                total += value
            expected.append(total / 8)
        assert grouped._group_means(sample).tolist() == expected
