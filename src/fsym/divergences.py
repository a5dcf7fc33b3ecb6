"""Standard f-functions and f-divergences.

Each family is standardized so that f(1) = 0, f'(1) = 0 and f''(1) = 1.  The
first derivative F = f' acts as the model link; its inverse is only defined on
an interval, exposed through ``F_inv_domain`` so that solvers can keep their
iterates feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tables import ProbTable

KL = "kl"
PEARSON = "pearson"
HELLINGER = "hellinger"
POWER = "power"


class DomainError(ValueError):
    """Argument outside the domain of F^{-1}.  Carries the violated bound."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


@dataclass(frozen=True)
class FFunction:
    """One member of the standard f-function families.

    ``lam`` is only meaningful for the power family.  Pearson's chi-square
    corresponds to power lambda = 1 and the Hellinger scaling to lambda = -1/2;
    both are kept as explicit branches because their link formulas are used
    directly by the asymmetry models.
    """

    family: str
    lam: float | None = None

    def __post_init__(self):
        if self.family not in (KL, PEARSON, HELLINGER, POWER):
            raise ValueError(f"unknown f-function family {self.family!r}")
        if self.family == POWER:
            if self.lam is None:
                raise ValueError("power family needs a lambda")
            object.__setattr__(self, "lam", float(self.lam))
        elif self.lam is not None:
            raise ValueError(f"{self.family} takes no lambda")

    @property
    def name(self) -> str:
        if self.family == POWER:
            return f"power({self.lam:g})"
        return self.family

    @property
    def link_lam(self) -> float:
        """Power index of the link: F^{-1}(y) = (1 + lam y)^(1/lam), exp(y) at 0."""
        return {KL: 0.0, PEARSON: 1.0, HELLINGER: -0.5}.get(self.family, self.lam)

    # f, F = f', f'' -------------------------------------------------------

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("f is defined on positive arguments")
        if self.family == KL:
            return x * np.log(x) - x + 1.0
        if self.family == PEARSON:
            return 0.5 * (x - 1.0) ** 2
        if self.family == HELLINGER:
            return 2.0 * (np.sqrt(x) - 1.0) ** 2
        lam = self.lam
        if lam == 0.0:
            return x * np.log(x) - x + 1.0
        if lam == -1.0:
            return x - 1.0 - np.log(x)
        # x*(x**lam - 1)/(lam*(lam+1)) - (x-1)/(lam+1), expm1 keeps small-lam stable
        return (x * np.expm1(lam * np.log(x)) / lam - (x - 1.0)) / (lam + 1.0)

    def F(self, x):
        """First derivative of f, the link function."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("F is defined on positive arguments")
        if self.family == KL:
            return np.log(x)
        if self.family == PEARSON:
            return x - 1.0
        if self.family == HELLINGER:
            return 2.0 - 2.0 / np.sqrt(x)
        lam = self.lam
        if lam == 0.0:
            return np.log(x)
        return np.expm1(lam * np.log(x)) / lam

    def f_second(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("f'' is defined on positive arguments")
        if self.family == KL:
            return 1.0 / x
        if self.family == PEARSON:
            return np.ones_like(x)
        if self.family == HELLINGER:
            return x**-1.5
        lam = self.lam
        if lam == 0.0:
            return 1.0 / x
        return x ** (lam - 1.0)

    def f_third(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("f''' is defined on positive arguments")
        if self.family == KL:
            return -1.0 / x**2
        if self.family == PEARSON:
            return np.zeros_like(x)
        if self.family == HELLINGER:
            return -1.5 * x**-2.5
        lam = self.lam
        if lam == 0.0:
            return -1.0 / x**2
        return (lam - 1.0) * x ** (lam - 2.0)

    # F^{-1} ----------------------------------------------------------------

    def F_inv_domain(self) -> tuple[float, float]:
        """Open interval on which F^{-1} is defined (and positive)."""
        if self.family == KL:
            return (-math.inf, math.inf)
        if self.family == PEARSON:
            return (-1.0, math.inf)
        if self.family == HELLINGER:
            return (-math.inf, 2.0)
        lam = self.lam
        if lam == 0.0:
            return (-math.inf, math.inf)
        if lam > 0:
            return (-1.0 / lam, math.inf)
        return (-math.inf, -1.0 / lam)

    def F_inv(self, y):
        y = np.asarray(y, dtype=float)
        lo, hi = self.F_inv_domain()
        if np.any(y <= lo) or np.any(y >= hi):
            raise DomainError(
                f"argument outside the F^-1 domain ({lo}, {hi}) of {self.name}",
                bound=(lo, hi),
            )
        if self.family == KL:
            return np.exp(y)
        if self.family == PEARSON:
            return y + 1.0
        if self.family == HELLINGER:
            return (1.0 - 0.5 * y) ** -2.0
        lam = self.lam
        if lam == 0.0:
            return np.exp(y)
        # (lam*y + 1)**(1/lam), stable for small lam through log1p
        return np.exp(np.log1p(lam * y) / lam)

    def F_inv_deriv(self, y):
        """d/dy F^{-1}(y) = 1 / f''(F^{-1}(y))."""
        return 1.0 / self.f_second(self.F_inv(y))


def kl() -> FFunction:
    return FFunction(KL)


def pearson() -> FFunction:
    return FFunction(PEARSON)


def hellinger() -> FFunction:
    return FFunction(HELLINGER)


def power(lam: float) -> FFunction:
    return FFunction(POWER, lam)


def parse_f(spec: str) -> FFunction:
    """Parse a CLI-style f-function name: kl, pearson, hellinger, power:LAMBDA."""
    spec = spec.strip().lower()
    if spec in (KL, PEARSON, HELLINGER):
        return FFunction(spec)
    if spec.startswith("power:"):
        try:
            return power(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad power lambda in {spec!r}") from exc
    raise ValueError(f"unknown f-function {spec!r}")


def divergence(ff: FFunction, p: ProbTable, q: ProbTable) -> float:
    """f-divergence of p from q, sum of q_i f(p_i / q_i).

    Uses the conventions 0*f(0/0) = 0 and 0*f(a/0) = a*lim f(t)/t.  An
    unbounded divergence is reported as ``inf`` rather than raised, so search
    loops can still compare candidates.
    """
    if p.shape != q.shape:
        raise ValueError("tables must share a shape")
    pv, qv = p.probs, q.probs
    total = 0.0
    inner = (qv > 0) & (pv > 0)
    if np.any(inner):
        total += float(np.sum(qv[inner] * np.asarray(ff.f(pv[inner] / qv[inner]))))
    zero_num = (qv > 0) & (pv == 0)
    if np.any(zero_num):
        f0 = _f_at_zero(ff)
        if math.isinf(f0):
            return math.inf
        total += f0 * float(np.sum(qv[zero_num]))
    escaped = (qv == 0) & (pv > 0)
    if np.any(escaped):
        slope = _slope_at_inf(ff)
        if math.isinf(slope):
            return math.inf
        total += slope * float(np.sum(pv[escaped]))
    return total


def _f_at_zero(ff: FFunction) -> float:
    """lim_{x->0+} f(x); infinite for power lambda <= -1."""
    if ff.family == KL:
        return 1.0
    if ff.family == PEARSON:
        return 0.5
    if ff.family == HELLINGER:
        return 2.0
    lam = ff.lam
    if lam > -1.0:
        return 1.0 / (lam + 1.0)
    return math.inf


def _slope_at_inf(ff: FFunction) -> float:
    """lim_{t->inf} f(t)/t; infinite whenever f grows superlinearly."""
    if ff.family in (KL, PEARSON):
        return math.inf
    if ff.family == HELLINGER:
        return 2.0
    lam = ff.lam
    if lam >= 0.0:
        return math.inf
    return -1.0 / lam
