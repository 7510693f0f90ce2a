"""Unit tests for the standard-library Student-t quantile."""

import math
from statistics import NormalDist

import pytest

from repro.stats.distributions import t_quantile

# (df, p, quantile) to 20 significant digits, from a 40-digit inversion of
# the regularized incomplete beta function.
REFERENCE_QUANTILES = [
    (3, 0.975, 3.1824463052837084359),
    (10, 0.975, 2.2281388519862742245),
    (30, 0.995, 2.7499956535672249664),
    (100, 0.95, 1.660234326085339115),
    (255, 0.995, 2.5952464847916272217),
    (1000, 0.9995, 3.3002826484239441558),
    (100_000, 0.975, 1.9599877075346092587),
]


@pytest.mark.parametrize("df, p, expected", REFERENCE_QUANTILES)
def test_matches_reference_values(df, p, expected):
    assert t_quantile(p, df) == pytest.approx(expected, rel=5e-14)


def test_closed_forms_for_one_and_two_degrees_of_freedom():
    # Cauchy: t = tan(pi (p - 1/2)); df = 2: t = (2p - 1) / sqrt(2 p (1 - p)).
    assert t_quantile(0.975, 1) == pytest.approx(math.tan(math.pi * 0.475), rel=1e-14)
    assert t_quantile(0.975, 2) == pytest.approx(0.95 / math.sqrt(2 * 0.975 * 0.025), rel=1e-14)


def test_symmetry_and_median():
    assert t_quantile(0.5, 7) == 0.0
    for df in (1, 4, 40, 4000):
        assert t_quantile(0.1, df) == -t_quantile(0.9, df)


def test_heavier_tails_than_the_normal():
    normal = NormalDist().inv_cdf(0.995)
    quantiles = [t_quantile(0.995, df) for df in (3, 10, 30, 300, 3000, 10**6)]
    assert quantiles == sorted(quantiles, reverse=True)
    assert all(q > normal for q in quantiles)
    assert quantiles[-1] == pytest.approx(normal, rel=1e-5)


def test_non_integer_degrees_of_freedom_lie_between_neighbours():
    assert t_quantile(0.99, 5) > t_quantile(0.99, 5.5) > t_quantile(0.99, 6)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_invalid_probability_rejected(p):
    with pytest.raises(ValueError):
        t_quantile(p, 10)


def test_invalid_degrees_of_freedom_rejected():
    with pytest.raises(ValueError):
        t_quantile(0.9, 0)
