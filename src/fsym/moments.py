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
    if (sigma2 <= 0).any():
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
# local coordinates (``_jet_plan``) until ``_scatter`` widens them to w = k.


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _covariances(m: np.ndarray, factor):
    """Jet of cov(s_a, s_b) = m_ab - mu_a mu_b (a == b: a variance) in a local
    frame, from its ``_jet_plan`` factor: (0-based a, b, positions of m_ab,
    constant gradient, constant Hessian, frame positions of mu_a and mu_b)."""
    a, b, ab, grad, hess, ia, ib = factor
    mu_a, mu_b = m[a], m[b]  # a, b < T: means
    grad = grad.copy()
    grad[:, ia] -= mu_b
    grad[:, ib] -= mu_a
    return m[ab] - mu_a * mu_b, grad, hess


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
    slope = e * v ** (e - 1)
    return (
        v**e,
        slope[:, None] * d,
        slope[:, None, None] * h + (e * (e - 1) * v ** (e - 2))[:, None, None] * _outer(d, d),
    )


@lru_cache(maxsize=None)
def _pair_chain_index(T: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based first and second variables of ``design.pair_chain(T)``."""
    return tuple(_read_only(np.array(side) - 1) for side in zip(*design.pair_chain(T)))


def _factor(T: int, a: np.ndarray, b: np.ndarray, at) -> tuple:
    """The parts of the jet of cov(s_a, s_b) that do not depend on m, in a
    local frame: ``at`` = (width, positions of mu_a, mu_b and m_ab)."""
    width, ia, ib, iab = at
    grad = np.zeros((len(a), width))
    grad[:, iab] = 1.0
    hess = np.zeros((len(a), width, width))
    hess[:, ia, ib] -= 1.0
    hess[:, ib, ia] -= 1.0
    ab = design.product_index(T)[a, b]
    return tuple(_read_only(x) for x in (a, b, ab, grad, hess)) + (ia, ib)


@lru_cache(maxsize=None)
def _jet_plan(model: str, T: int):
    """The parts of a ve or ce jet that do not depend on m: the positions of
    the m_hh, the constraints' covariance factors (the variance for ve;
    var_a, var_b and cov_ab for ce), k, and the flat positions of each
    constraint's gradient and Hessian entries in the k moment coordinates
    (its local frame: (mu_h, m_hh) for a variance, (mu_a, mu_b, m_aa, m_bb,
    m_ab) for a correlation)."""
    idx = design.product_index(T)
    h = np.arange(T)
    if model == VE:
        factors = (_factor(T, h, h, (2, 0, 0, 1)),)
        frames = np.column_stack([h, idx[h, h]])
    else:
        a, b = _pair_chain_index(T)
        factors = (_factor(T, a, a, (5, 0, 0, 2)), _factor(T, b, b, (5, 1, 1, 3)),
                   _factor(T, a, b, (5, 0, 1, 4)))
        frames = np.column_stack([a, b, idx[a, a], idx[b, b], idx[a, b]])
    k = T + T * (T + 1) // 2
    rows = np.arange(len(frames))[:, None]
    grad_at = (rows * k + frames).ravel()
    hess_at = ((rows * k)[:, :, None] * k + frames[:, :, None] * k + frames[:, None, :]).ravel()
    return _read_only(idx[h, h]), factors, k, _read_only(grad_at), _read_only(hess_at)


def _scatter(terms, k: int, grad_at: np.ndarray, hess_at: np.ndarray):
    """A local-frame jet with its gradients and Hessians in the k coordinates."""
    value, grad, hess = terms
    P = len(value)
    full_grad = np.zeros(P * k)
    full_grad[grad_at] = grad.ravel()
    full_hess = np.zeros(P * k * k)
    full_hess[hess_at] = hess.ravel()
    return value, full_grad.reshape(P, k), full_hess.reshape(P, k, k)


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
    squares, factors, k, grad_at, hess_at = _jet_plan(model, T)
    _check_variances(m[squares] - m[:T] * m[:T])
    if model == VE:
        terms = _covariances(m, factors[0])
    else:
        var_a, var_b, cov = (_covariances(m, factor) for factor in factors)
        terms = _product(cov, _power(_product(var_a, var_b), -0.5))
    return tuple(t[:-1] - t[1:] for t in _scatter(terms, k, grad_at, hess_at))


def constraint_vector(model: str, p: ProbTable) -> np.ndarray:
    """Constraint residuals; all zero exactly when the hypothesis holds."""
    return _constraint_jet(model, p.shape, _coordinates(p))[0]


def constraint_jacobian(model: str, p: ProbTable) -> np.ndarray:
    """Analytic Jacobian of :func:`constraint_vector` with respect to the cells."""
    grad = _constraint_jet(model, p.shape, _coordinates(p))[1]
    return grad @ design.moment_basis(p.shape).T

