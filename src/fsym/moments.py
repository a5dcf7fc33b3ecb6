"""Marginal moments under the score transform and the moment-equality constraints.

The four symmetric hypotheses compare marginal summaries across variables:
means (ME), variances (VE), correlations (CE), and the joint second-moment
version (ME2) whose constraint rows are exactly the design difference vectors.
Each is written once as a function c(m) of the moment coordinates m = F' pi,
where F = ``design.moment_basis`` holds the scores s_h and their products
s_a s_b (a <= b).  ME and ME2 are linear in m; VE and CE difference the
variances and correlations built from the covariances m_ab - mu_a mu_b.  The
cell Jacobian follows by the chain rule: grad c(m)' F'.

Each VE or CE constraint's value, gradient and Hessian (its jet) lives in
that constraint's own coordinates, (mu_h, m_hh) for a variance and (mu_a,
mu_b, m_aa, m_bb, m_ab) for a correlation, and is scattered into the k
moment coordinates once, before adjacent constraints are differenced.
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
# along the first axis: shapes (P,), (P, w) and (P, w, w), with w = 2 or 5
# local coordinates (``_frames``) until ``_scatter`` widens them to w = k.


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _covariances(m: np.ndarray, T: int, a: np.ndarray, b: np.ndarray, at):
    """Jet of cov(s_a, s_b) = m_ab - mu_a mu_b (0-based a, b; a == b: a variance)
    in a local frame: ``at`` = (width, positions of mu_a, mu_b and m_ab)."""
    width, ia, ib, iab = at
    mu = m[:T]
    grad = np.zeros((len(a), width))
    grad[:, iab] = 1.0
    grad[:, ia] -= mu[b]
    grad[:, ib] -= mu[a]
    hess = np.zeros((len(a), width, width))
    hess[:, ia, ib] -= 1.0
    hess[:, ib, ia] -= 1.0
    return m[design.product_index(T)[a, b]] - mu[a] * mu[b], grad, hess


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


@lru_cache(maxsize=None)
def _frames(model: str, T: int) -> np.ndarray:
    """(P, w) moment coordinates of each ve or ce constraint's local frame."""
    idx = design.product_index(T)
    if model == VE:
        h = np.arange(T)
        return _read_only(np.column_stack([h, idx[h, h]]))
    a, b = _pair_chain_index(T)
    return _read_only(np.column_stack([a, b, idx[a, a], idx[b, b], idx[a, b]]))


def _scatter(terms, frames: np.ndarray, k: int):
    """A local-frame jet with its gradients and Hessians in the k coordinates."""
    value, grad, hess = terms
    P = len(frames)
    rows = np.arange(P)[:, None]
    full_grad = np.zeros((P, k))
    full_grad[rows, frames] = grad
    full_hess = np.zeros((P, k, k))
    full_hess[rows[:, :, None], frames[:, :, None], frames[:, None, :]] = hess
    return value, full_grad, full_hess


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
    var = _covariances(m, T, h, h, (2, 0, 0, 1))
    _check_variances(var[0])
    if model == VE:
        terms = var
    else:
        a, b = _pair_chain_index(T)
        var_a = _covariances(m, T, a, a, (5, 0, 0, 2))
        var_b = _covariances(m, T, b, b, (5, 1, 1, 3))
        scale = _power(_product(var_a, var_b), -0.5)
        terms = _product(_covariances(m, T, a, b, (5, 0, 1, 4)), scale)
    return tuple(t[:-1] - t[1:] for t in _scatter(terms, _frames(model, T), len(m)))


def constraint_vector(model: str, p: ProbTable) -> np.ndarray:
    """Constraint residuals; all zero exactly when the hypothesis holds."""
    return _constraint_jet(model, p.shape, _coordinates(p))[0]


def constraint_jacobian(model: str, p: ProbTable) -> np.ndarray:
    """Analytic Jacobian of :func:`constraint_vector` with respect to the cells."""
    grad = _constraint_jet(model, p.shape, _coordinates(p))[1]
    return grad @ design.moment_basis(p.shape).T

