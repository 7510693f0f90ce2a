"""Unit tests for the three stopping criteria."""

import numpy as np
import pytest

from repro.stats.stopping import (
    CltStoppingCriterion,
    KolmogorovSmirnovStoppingCriterion,
    OrderStatisticStoppingCriterion,
    make_stopping_criterion,
)

CRITERION_CLASSES = [
    CltStoppingCriterion,
    OrderStatisticStoppingCriterion,
    KolmogorovSmirnovStoppingCriterion,
]


@pytest.fixture(params=CRITERION_CLASSES, ids=lambda cls: cls.name)
def criterion(request):
    return request.param(max_relative_error=0.05, confidence=0.99, min_samples=64)


class TestCommonBehaviour:
    def test_empty_sample_never_stops(self, criterion):
        decision = criterion.evaluate([])
        assert not decision.should_stop
        assert decision.relative_half_width == float("inf")

    def test_small_sample_never_stops(self, criterion):
        rng = np.random.default_rng(0)
        decision = criterion.evaluate(rng.normal(100.0, 1.0, size=16).tolist())
        assert not decision.should_stop

    def test_large_low_variance_sample_stops(self, criterion):
        rng = np.random.default_rng(1)
        sample = rng.normal(100.0, 2.0, size=5000).tolist()
        decision = criterion.evaluate(sample)
        assert decision.should_stop
        assert decision.relative_half_width <= 0.05
        assert decision.estimate == pytest.approx(100.0, rel=0.01)

    def test_interval_brackets_estimate(self, criterion):
        rng = np.random.default_rng(2)
        sample = rng.exponential(5.0, size=2000).tolist()
        decision = criterion.evaluate(sample)
        assert decision.lower <= decision.estimate <= decision.upper

    def test_high_variance_sample_keeps_sampling(self, criterion):
        rng = np.random.default_rng(3)
        sample = rng.exponential(1.0, size=100).tolist()
        assert not criterion.evaluate(sample).should_stop

    def test_interval_shrinks_with_sample_size(self, criterion):
        rng = np.random.default_rng(4)
        population = rng.normal(50.0, 10.0, size=20_000)
        small = criterion.evaluate(population[:200].tolist())
        large = criterion.evaluate(population.tolist())
        assert large.relative_half_width < small.relative_half_width

    def test_invalid_parameters_rejected(self, criterion):
        cls = type(criterion)
        with pytest.raises(ValueError):
            cls(max_relative_error=0.0)
        with pytest.raises(ValueError):
            cls(confidence=1.5)
        with pytest.raises(ValueError):
            cls(min_samples=1)


class TestCoverage:
    """Each criterion's interval must cover the true mean at least as often as
    its nominal confidence (within Monte-Carlo noise) for i.i.d. samples."""

    @pytest.mark.parametrize("criterion_class", CRITERION_CLASSES, ids=lambda c: c.name)
    def test_empirical_coverage(self, criterion_class):
        criterion = criterion_class(max_relative_error=0.05, confidence=0.90, min_samples=64)
        rng = np.random.default_rng(5)
        true_mean = 10.0
        covered = 0
        trials = 200
        for _ in range(trials):
            sample = rng.gamma(shape=4.0, scale=true_mean / 4.0, size=512).tolist()
            decision = criterion.evaluate(sample)
            if decision.lower <= true_mean <= decision.upper:
                covered += 1
        assert covered / trials >= 0.85


class TestOrderStatisticSpecifics:
    def test_batch_means_fold_remainder(self):
        criterion = OrderStatisticStoppingCriterion(num_batches=8)
        means = criterion.batch_means(list(range(20)))
        assert len(means) == 8

    def test_small_sample_returns_raw_values(self):
        criterion = OrderStatisticStoppingCriterion(num_batches=16)
        assert len(criterion.batch_means([1.0, 2.0, 3.0])) == 3

    def test_rank_reaches_confidence(self):
        criterion = OrderStatisticStoppingCriterion(confidence=0.99, num_batches=16)
        rank = criterion.order_statistic_rank(16)
        assert rank is not None and 1 <= rank <= 8

    def test_rank_none_when_too_few_batches(self):
        criterion = OrderStatisticStoppingCriterion(confidence=0.99)
        assert criterion.order_statistic_rank(4) is None

    def test_too_few_batches_configuration_rejected(self):
        with pytest.raises(ValueError):
            OrderStatisticStoppingCriterion(num_batches=4)

    def test_rank_from_exact_binomial_tail(self):
        # Coverage of r = 3 is 1 - 2 * 137 / 2**16 = 0.9958; r = 4 gives 0.9787.
        criterion = OrderStatisticStoppingCriterion(confidence=0.99, num_batches=16)
        assert criterion.order_statistic_rank(16) == 3

    def test_rank_lookup_is_memoized(self):
        from repro.stats.stopping.order_stat import _order_statistic_rank

        criterion = OrderStatisticStoppingCriterion(confidence=0.987, num_batches=24)
        criterion.order_statistic_rank(24)
        hits = _order_statistic_rank.cache_info().hits
        criterion.order_statistic_rank(24)
        assert _order_statistic_rank.cache_info().hits == hits + 1

    @pytest.mark.parametrize("size", [16, 17, 100, 257, 4096, 20_003, 160_015])
    def test_batch_means_equal_per_slice_means(self, size):
        criterion = OrderStatisticStoppingCriterion(num_batches=16)
        data = np.random.default_rng(size).gamma(2.0, 1e-12, size=size)
        batch = size // 16
        expected = [data[i * batch : (i + 1) * batch].mean() for i in range(15)]
        expected.append(data[15 * batch :].mean())
        assert criterion.batch_means(data).tolist() == expected


class TestArrayInput:
    """A float64 array (the estimators' buffer view) decides exactly like a list."""

    @pytest.mark.parametrize("criterion_class", CRITERION_CLASSES, ids=lambda c: c.name)
    def test_view_and_list_give_identical_decisions(self, criterion_class):
        from repro.stats.sample_buffer import SampleBuffer

        criterion = criterion_class(max_relative_error=0.05, confidence=0.99, min_samples=64)
        rng = np.random.default_rng(8)
        buffer = SampleBuffer()
        values: list[float] = []
        for _ in range(40):
            block = rng.gamma(3.0, 1e-12, size=96).tolist()
            buffer.extend(block)
            values.extend(block)
            assert criterion.evaluate(buffer.view()) == criterion.evaluate(values)


class TestKolmogorovSmirnovSpecifics:
    def test_dkw_epsilon_shrinks_with_sample_size(self):
        criterion = KolmogorovSmirnovStoppingCriterion()
        assert criterion.dkw_epsilon(1000) < criterion.dkw_epsilon(100)

    def test_bounds_within_observed_support(self):
        criterion = KolmogorovSmirnovStoppingCriterion()
        rng = np.random.default_rng(6)
        sample = rng.uniform(2.0, 8.0, size=1000).tolist()
        _estimate, lower, upper = criterion.interval(sample)
        assert lower >= 2.0 - 1e-9
        assert upper <= 8.0 + 1e-9

    def test_more_conservative_than_clt(self):
        rng = np.random.default_rng(7)
        sample = rng.normal(100.0, 5.0, size=2000).tolist()
        ks = KolmogorovSmirnovStoppingCriterion().evaluate(sample)
        clt = CltStoppingCriterion().evaluate(sample)
        assert ks.relative_half_width >= clt.relative_half_width


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_stopping_criterion("clt"), CltStoppingCriterion)
        assert isinstance(
            make_stopping_criterion("order-statistic"), OrderStatisticStoppingCriterion
        )
        assert isinstance(make_stopping_criterion("ks"), KolmogorovSmirnovStoppingCriterion)

    def test_parameters_forwarded(self):
        criterion = make_stopping_criterion("clt", max_relative_error=0.1, confidence=0.9)
        assert criterion.max_relative_error == 0.1
        assert criterion.confidence == 0.9

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown stopping criterion"):
            make_stopping_criterion("magic")

    def test_describe_mentions_accuracy(self):
        text = make_stopping_criterion("clt", max_relative_error=0.05).describe()
        assert "5.0%" in text
