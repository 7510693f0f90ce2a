"""Quantile of Student's t distribution, for the CLT stopping criterion.

The parametric stopping rule needs one number per check: the quantile
``t_{df}(p)`` at the confidence level's two-sided tail.  It is computed here
from the regularized incomplete beta function, with no dependency beyond the
standard library:

* ``df >= 1000``: the Cornish–Fisher expansion of Abramowitz & Stegun
  26.7.5 about the normal quantile (four correction terms; the truncation
  error is below 3e-14 relative there);
* ``df < 1000``: Newton steps on the upper tail
  ``P(T > t) = I_x(df/2, 1/2) / 2`` with ``x = df / (df + t^2)``, the
  incomplete beta evaluated by its continued fraction (Numerical Recipes
  §6.4, Lentz's method) and normalized by an accurate ``Gamma(a + 1/2) /
  Gamma(a)`` ratio (``math.lgamma`` differences lose about 1e-12 at
  ``df`` near 1000);
* ``df`` of 1 and 2 in closed form.

The tail is convex for ``t > 0``, so Newton's method started at or below the
root climbs to it monotonically; the normal quantile is such a start, and
above 30 degrees of freedom the Cornish–Fisher value is close enough to
start from directly.
"""

from __future__ import annotations

import math
from statistics import NormalDist

__all__ = ["t_quantile"]

_NORMAL = NormalDist()
_SQRT_PI = math.sqrt(math.pi)

#: Degrees of freedom from which the Cornish–Fisher series alone is used.
_CORNISH_FISHER_FROM = 1000
#: Below this many degrees of freedom Newton starts from the normal quantile.
_NEWTON_FROM_NORMAL_BELOW = 30

#: Coefficients of ln(Gamma(a + 1/2) / Gamma(a)) - ln(a)/2 in powers
#: a^-1, a^-3, ..., from the Bernoulli-polynomial expansion of ln Gamma.
_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)
#: The series is used from this argument on (next term below 2e-16 there).
_RATIO_SERIES_FROM = 12.0

_TINY = 1e-300


def _gamma_half_ratio(a: float) -> float:
    """``Gamma(a + 1/2) / Gamma(a)`` for ``a > 0``, accurate to a few ulp."""
    scale = 1.0
    while a < _RATIO_SERIES_FROM:
        # Gamma(a + 1/2) / Gamma(a) = ratio(a + 1) * a / (a + 1/2)
        scale *= a / (a + 0.5)
        a += 1.0
    inverse = 1.0 / a
    inverse_sq = inverse * inverse
    series = 0.0
    for coefficient in reversed(_RATIO_SERIES):
        series = series * inverse_sq + coefficient
    return scale * math.sqrt(a) * math.exp(series * inverse)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)`` (Numerical Recipes ``betacf``)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, x={x})")


def _upper_tail_and_density(t: float, df: float) -> tuple[float, float]:
    """``P(T > t)`` and the density at ``t > 0`` for ``df`` degrees of freedom."""
    a = 0.5 * df
    u = t * t / df
    log1p_u = math.log1p(u)
    # 1 / B(a, 1/2) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi))
    inverse_beta = _gamma_half_ratio(a) / _SQRT_PI
    density = math.exp(-(a + 0.5) * log1p_u) * inverse_beta / math.sqrt(df)
    x = 1.0 / (1.0 + u)
    y = u / (1.0 + u)  # 1 - x without cancellation
    front = math.exp(-a * log1p_u) * math.sqrt(y) * inverse_beta  # x^a (1-x)^(1/2) / B
    if x < (a + 1.0) / (a + 2.5):
        tail = 0.5 * front * _beta_continued_fraction(a, 0.5, x) / a
    else:
        tail = 0.5 * (1.0 - 2.0 * front * _beta_continued_fraction(0.5, a, y))
    return tail, density


def t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t distribution: ``t`` with ``P(T <= t) = p``.

    Parameters
    ----------
    p:
        Probability, strictly between 0 and 1.
    df:
        Degrees of freedom (positive; the CLT criterion passes ``n - 1``).

    Agrees with ``scipy.stats.t.ppf`` to within 1e-12 relative for
    ``df`` from 1 to 1e7 at the two-sided tails of confidence levels 0.80
    to 0.999 (the test suite checks this against scipy when it is
    installed).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if not df > 0:
        raise ValueError("df must be positive")
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    q = 1.0 - p  # exact for p >= 1/2
    if q == 0.5:
        return 0.0
    if df == 1:
        return 1.0 / math.tan(math.pi * q)
    if df == 2:
        return (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))

    z = _NORMAL.inv_cdf(p)
    if df < _NEWTON_FROM_NORMAL_BELOW:
        t = z
    else:
        # Abramowitz & Stegun 26.7.5.
        z2 = z * z
        g1 = (z2 + 1.0) * z / 4.0
        g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
        g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
        g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
        inverse = 1.0 / df
        t = z + (g1 + (g2 + (g3 + g4 * inverse) * inverse) * inverse) * inverse
        if df >= _CORNISH_FISHER_FROM:
            return t

    for _ in range(200):
        tail, density = _upper_tail_and_density(t, df)
        step = (tail - q) / density
        t += step
        # Newton converges quadratically: once a step is this small, the
        # remaining error is far below one ulp.
        if abs(step) <= 1e-9 * t:
            return t
    raise ArithmeticError(f"t quantile did not converge (p={p}, df={df})")
