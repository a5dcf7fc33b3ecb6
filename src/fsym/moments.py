"""Marginal moments under the score transform and the moment-equality constraints.

The four symmetric hypotheses compare marginal summaries across variables:
means (ME), variances (VE), correlations (CE), and the joint second-moment
version (ME2) whose constraint rows are exactly the design difference vectors.
Each is written once as a function c(m) of the moment coordinates m = F' pi,
where F = ``design.moment_basis`` holds the scores s_h and their products
s_a s_b (a <= b).  ME and ME2 are linear in m; VE and CE difference the
variances and correlations built from the covariances m_ab - mu_a mu_b.  The
cell Jacobian follows by the chain rule: grad c(m)' F'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import design
from .tables import ProbTable, TableShape, _read_only

ME = "me"
VE = "ve"
CE = "ce"
ME2 = "me2"
MOMENT_FAMILIES = (ME2, ME, VE, CE)


class DegenerateMarginalError(ValueError):
    """A marginal has zero variance, so correlations are undefined."""


@dataclass(frozen=True)
class MomentSet:
    mu: np.ndarray  # marginal means
    sigma2: np.ndarray  # marginal variances
    rho: np.ndarray  # correlation matrix
    mixed: np.ndarray  # raw second moments E[g_s g_t]


def _coordinates(p: ProbTable) -> np.ndarray:
    return design.moment_basis(p.shape).T @ p.probs


def _check_variances(sigma2: np.ndarray) -> None:
    if np.any(sigma2 <= 0):
        raise DegenerateMarginalError(
            f"marginal variances {sigma2} include a non-positive value"
        )


def moments(p: ProbTable) -> MomentSet:
    """Means, variances, correlations, and raw mixed moments of the scores."""
    T = p.shape.T
    m = _coordinates(p)
    mu = m[:T]
    mixed = m[design.product_index(T)]
    cov = mixed - np.outer(mu, mu)
    sigma2 = np.diag(cov).copy()
    _check_variances(sigma2)
    sd = np.sqrt(sigma2)
    rho = cov / np.outer(sd, sd)
    np.fill_diagonal(rho, 1.0)
    return MomentSet(mu=mu, sigma2=sigma2, rho=rho, mixed=mixed)


# A "jet" is (values, gradients, Hessians) of several functions of m, stacked
# along the first axis: shapes (P,), (P, k) and (P, k, k).


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _covariances(m: np.ndarray, T: int, a: np.ndarray, b: np.ndarray):
    """Jet of cov(s_a, s_b) = m_ab - mu_a mu_b (0-based a, b; a == b: a variance)."""
    mu = m[:T]
    cols = design.product_index(T)[a, b]
    rows = np.arange(len(a))
    grad = np.zeros((len(a), len(m)))
    grad[rows, cols] = 1.0
    grad[rows, a] -= mu[b]
    grad[rows, b] -= mu[a]
    hess = np.zeros((len(a), len(m), len(m)))
    hess[rows, a, b] -= 1.0
    hess[rows, b, a] -= 1.0
    return m[cols] - mu[a] * mu[b], grad, hess


def _product(x, y):
    """Jet of the product of two jets."""
    (xv, xd, xh), (yv, yd, yh) = x, y
    return (
        xv * yv,
        xd * yv[:, None] + xv[:, None] * yd,
        xh * yv[:, None, None] + _outer(xd, yd) + _outer(yd, xd) + xv[:, None, None] * yh,
    )


def _power(x, e: float):
    """Jet of a jet raised to the power e."""
    v, d, h = x
    return (
        v**e,
        (e * v ** (e - 1))[:, None] * d,
        (e * v ** (e - 1))[:, None, None] * h
        + (e * (e - 1) * v ** (e - 2))[:, None, None] * _outer(d, d),
    )


@lru_cache(maxsize=None)
def _pair_chain_index(T: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based first and second variables of ``design.pair_chain(T)``."""
    return tuple(_read_only(np.array(side) - 1) for side in zip(*design.pair_chain(T)))


def _constraint_jet(model: str, shape: TableShape, m: np.ndarray):
    """Values, gradients and Hessians in m of a model's constraints.

    The Hessians are None for the linear models ME and ME2.
    """
    T = shape.T
    if model in (ME, ME2):
        A = design.difference_coefficients(T)
        A = A[: T - 1] if model == ME else A[design.independent_moment_rows(shape)]
        return A @ m, A, None
    if model not in (VE, CE):
        raise ValueError(f"unknown moment model {model!r}")
    h = np.arange(T)
    var = _covariances(m, T, h, h)
    _check_variances(var[0])
    if model == VE:
        terms = var
    else:
        a, b = _pair_chain_index(T)
        var_a, var_b = (tuple(t[side] for t in var) for side in (a, b))
        scale = _power(_product(var_a, var_b), -0.5)
        terms = _product(_covariances(m, T, a, b), scale)
    return tuple(t[:-1] - t[1:] for t in terms)


def constraint_vector(model: str, p: ProbTable) -> np.ndarray:
    """Constraint residuals; all zero exactly when the hypothesis holds."""
    return _constraint_jet(model, p.shape, _coordinates(p))[0]


def constraint_jacobian(model: str, p: ProbTable) -> np.ndarray:
    """Analytic Jacobian of :func:`constraint_vector` with respect to the cells."""
    grad = _constraint_jet(model, p.shape, _coordinates(p))[1]
    return grad @ design.moment_basis(p.shape).T

