"""Standard f-functions and f-divergences.

Every f-function the package ships is a member of the power (Cressie-Read)
family, indexed by lam = ``FFunction.link_lam``: ``kl``, ``pearson`` and
``hellinger`` are ``power(0)``, ``power(1)`` and ``power(-1/2)``.  One set
of formulas in lam serves them all,

    f(x) = [x (x^lam - 1) / lam - (x - 1)] / (lam + 1),
    F(x) = f'(x) = (x^lam - 1) / lam,    f''(x) = x^(lam - 1),
    F^{-1}(y) = (1 + lam y)^(1/lam),

with their limits at the removable singularities lam = 0 (x log x - x + 1,
log x, exp y) and lam = -1 (x - 1 - log x).  Each f is standardized so that
f(1) = 0, f'(1) = 0 and f''(1) = 1.  F is the model link.  ``F_inv`` refuses
arguments outside its domain, ``F_inv_domain``; the fits call ``inverse_link``
unchecked, kept inside by ``linkspace``'s normalizer brackets and held cells.
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


def link(x, lam: float):
    """F(x) = (x^lam - 1) / lam, log x at lam = 0; expm1 keeps small lam stable."""
    if lam == 0.0:
        return np.log(x)
    return np.expm1(lam * np.log(x)) / lam


def inverse_link(y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, u) = (F^{-1}(y), 1 + lam y); g is 0 on the edge of a lam > 0 domain."""
    if lam == 0.0:
        return np.exp(y), np.ones_like(y)
    if lam == 1.0:
        return 1.0 + y, 1.0 + y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.exp(np.log1p(lam * y) / lam), 1.0 + lam * y


def _positive(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError(f"{what} is defined on positive arguments")
    return x


@dataclass(frozen=True)
class FFunction:
    """A power-family f-function, by name or by its index.

    ``kl``, ``pearson`` and ``hellinger`` take no ``lam``; ``power`` needs
    one.  The name only labels the function: every formula reads the power
    index ``link_lam``.
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

    # f, F = f', f'', f''' ---------------------------------------------------

    def f(self, x):
        x, lam = _positive(x, "f"), self.link_lam
        if lam == 0.0:
            return x * np.log(x) - x + 1.0
        if lam == -1.0:
            return x - 1.0 - np.log(x)
        return (x * link(x, lam) - (x - 1.0)) / (lam + 1.0)

    def F(self, x):
        """First derivative of f, the link function."""
        return link(_positive(x, "F"), self.link_lam)

    def f_second(self, x):
        return _positive(x, "f''") ** (self.link_lam - 1.0)

    def f_third(self, x):
        lam = self.link_lam
        return (lam - 1.0) * _positive(x, "f'''") ** (lam - 2.0)

    # F^{-1} ----------------------------------------------------------------

    def F_inv_domain(self) -> tuple[float, float]:
        """Open interval on which F^{-1} is defined (and positive)."""
        lam = self.link_lam
        if lam == 0.0:
            return (-math.inf, math.inf)
        return (-1.0 / lam, math.inf) if lam > 0 else (-math.inf, -1.0 / lam)

    def F_inv(self, y):
        y = np.asarray(y, dtype=float)
        lo, hi = self.F_inv_domain()
        if np.any(y <= lo) or np.any(y >= hi):
            raise DomainError(
                f"argument outside the F^-1 domain ({lo}, {hi}) of {self.name}",
                bound=(lo, hi),
            )
        return inverse_link(y, self.link_lam)[0]


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
    """lim_{x->0+} f(x); infinite for lam <= -1."""
    lam = ff.link_lam
    return 1.0 / (lam + 1.0) if lam > -1.0 else math.inf


def _slope_at_inf(ff: FFunction) -> float:
    """lim_{t->inf} f(t)/t; infinite whenever f grows superlinearly (lam >= 0)."""
    lam = ff.link_lam
    return -1.0 / lam if lam < 0.0 else math.inf
