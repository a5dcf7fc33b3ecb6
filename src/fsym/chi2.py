"""Upper-tail chi-square probabilities via the regularized incomplete gamma function.

Series expansion for the lower tail when x < a + 1, Lentz continued fraction
for the upper tail otherwise; both iterated to machine precision, comfortably
inside the 1e-10 absolute accuracy target.
"""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


def _lower_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_continued_fraction(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if not x >= 0:  # NaN too
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_series(a, x)))
    return min(1.0, max(0.0, _upper_continued_fraction(a, x)))


def chi2_sf(x: float, df: float) -> float:
    """P(chi^2_df >= x); a NaN statistic is refused, not read as 0."""
    if math.isnan(x):
        raise ValueError("the test statistic is NaN")
    if df < 0:
        raise ValueError(f"degrees of freedom must be non-negative, got {df}")
    if df == 0:
        # Degenerate distribution at zero; only sensible for a saturated model.
        return 1.0 if x <= 1e-12 else 0.0
    return regularized_upper_gamma(df / 2.0, x / 2.0)
