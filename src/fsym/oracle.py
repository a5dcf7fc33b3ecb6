"""The dense oracles: a KKT fitter and the N x N Wald forms.

No production module imports this one.  It holds the independent checks of
the fast paths, each built on dense N x N (or (N + d)-square) arrays:

* ``fit_hlp`` maximizes the likelihood under any smooth constraint
  h(pi) = 0 by damped Newton steps on the Lagrangian stationarity system in
  cell log scales (pi = softmax(xi)), with dense (N + d)-square systems.
  On ``moment_constraint`` it is the oracle of ``fitting.fit_moment``, on
  ``linkform_constraint`` that of ``fitting.fit_link``, and on
  ``symmetry_constraint`` that of the closed-form symmetry fit.
* ``sigma``, ``f_jacobian``, ``orbit_averaging_matrix`` and
  ``wald_statistic`` are the dense forms of the Wald statistics that
  ``wald.decompose`` computes in orbit blocks.

``fitting``, ``wald`` and the package still resolve the old names of these
through a module ``__getattr__`` that imports this module on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import design
from .divergences import FFunction
from .fitting import (
    MAX_ITER,
    TOL_CONSTRAINT,
    TOL_LOGLIK,
    FitError,
    FitResult,
    _finish,
    degrees_of_freedom,
)
from .moments import (
    _constraint_jet,
    _coordinates,
    constraint_jacobian as moment_jacobian,
    constraint_vector as moment_vector,
)
from .tables import CountTable, Orbits, ProbTable, TableShape, orbit_structure, orbit_sums
from .wald import _solve


def same_orbit(orbits: Orbits) -> np.ndarray:
    """N x N mask of cell pairs that share an orbit."""
    return orbits.orbit_id[:, None] == orbits.orbit_id[None, :]


def sigma(p: ProbTable) -> np.ndarray:
    """Multinomial covariance kernel diag(pi) - pi pi'."""
    return np.diag(p.probs) - np.outer(p.probs, p.probs)


def f_jacobian(p: ProbTable, ff: FFunction) -> np.ndarray:
    """Jacobian of the link values F(pi / pi_sym) with respect to the cells.

    Nonzero only within orbits: moving mass inside an orbit shifts both the
    cell ratio and the shared orbit average.
    """
    if not p.is_interior:
        raise ValueError("link Jacobian needs a strictly positive table")
    shape = p.shape
    struct = orbit_structure(shape)
    pi = p.probs
    pi_s = orbit_sums(shape, pi) / struct.size_of_cell
    fpp = np.asarray(ff.f_second(pi / pi_s))
    # Column value shared by every cell of the row's orbit.
    spill = -pi * fpp / (struct.size_of_cell * pi_s**2)
    out = np.where(same_orbit(struct), spill[:, None], 0.0)
    out[np.diag_indices_from(out)] += fpp / pi_s
    return out


def orbit_averaging_matrix(shape: TableShape) -> np.ndarray:
    """Projector J onto orbit-constant vectors, J_ij = 1/|D(i)| within orbits."""
    struct = orbit_structure(shape)
    return np.where(same_orbit(struct), 1.0 / struct.size_of_cell[:, None], 0.0)


def wald_statistic(h: np.ndarray, H: np.ndarray, p: ProbTable, n: float) -> float:
    """n h' (H Sigma H')^{-1} h evaluated at p."""
    value, _ = _wald(h, H, p, n)
    return value


def _wald(h: np.ndarray, H: np.ndarray, p: ProbTable, n: float) -> tuple[float, bool]:
    h = np.atleast_1d(np.asarray(h, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if h.size == 0:
        return 0.0, False
    solution, ridged = _solve(H @ sigma(p) @ H.T, h)
    return float(n * h @ solution), ridged


@dataclass(frozen=True)
class Constraint:
    """Smooth constraint h(pi) = 0 with analytic Jacobian.

    ``hess``, when provided, maps (pi, weights) to the weighted sum of the
    constraint Hessians sum_k w_k d2 h_k / dpi dpi'; the fitter uses it for
    exact Lagrangian curvature and falls back to Gauss-Newton otherwise.
    """

    dim: int
    fun: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def _zero_hess(pi: np.ndarray, weights: np.ndarray) -> float:
    return 0.0


def symmetry_constraint(shape: TableShape) -> Constraint:
    """Pairwise probability equalities within each orbit (linear).

    One row pi_first - pi_other per non-first member, orbit by orbit.
    """
    struct = orbit_structure(shape)
    others = np.delete(struct.order, struct.starts)
    rows = np.arange(len(others))
    A = np.zeros((len(others), shape.n_cells))
    A[rows, struct.order[struct.starts][struct.orbit_id[others]]] = 1.0
    A[rows, others] = -1.0
    return Constraint(
        dim=A.shape[0], fun=lambda pi: A @ pi, jac=lambda pi: A, hess=_zero_hess
    )


def _link_curvature(
    shape: TableShape, ff: FFunction, pi: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_i w_i d2 F(x_i) / dpi dpi' with x_i = |D(i)| pi_i / orbit sum.

    Orbit-local: x_i depends only on pi_i and its orbit's total S.  With
    q = |D(i)| / S, p = x / S, b = w F''(x) and c = w F'(x), the same-orbit
    entry (j, k) is e_j + e_k + sum_o (b p^2 + 2 c p / S), e = -q (b p + c / S),
    plus q^2 b on the diagonal.
    """
    struct = orbit_structure(shape)
    S = orbit_sums(shape, pi)
    q = struct.size_of_cell / S
    x = pi * q
    p = x / S
    b = weights * np.asarray(ff.f_third(x))
    c = weights * np.asarray(ff.f_second(x))
    e = -q * (b * p + c / S)
    shared = struct.sum(b * p * p + 2.0 * c * p / S)[struct.orbit_id]
    out = np.where(same_orbit(struct), e[:, None] + e[None, :] + shared[:, None], 0.0)
    out[np.diag_indices_from(out)] += q * q * b
    return out


def linkform_constraint(shape: TableShape, family: str, ff: FFunction) -> Constraint:
    """U' F(pi / pi_sym) = 0 for the requested asymmetry family, with U from
    the N x N SVD of its design: the oracle of ``fit_link``, used only by
    ``fit_hlp``."""
    ds = design.design_matrix(shape, family)
    struct = orbit_structure(shape)
    U = ds.U

    def fun(pi: np.ndarray) -> np.ndarray:
        # a numerically dead orbit yields NaN here, which the fitter's line
        # search treats as an out-of-domain probe
        with np.errstate(invalid="ignore", divide="ignore"):
            pi_s = orbit_sums(shape, pi) / struct.size_of_cell
            ratio = pi / pi_s
        if np.any(~np.isfinite(ratio)) or np.any(ratio <= 0):
            return np.full(U.shape[1], np.nan)
        return U.T @ np.asarray(ff.F(ratio))

    def jac(pi: np.ndarray) -> np.ndarray:
        return U.T @ f_jacobian(ProbTable(shape, pi / pi.sum()), ff)

    def hess(pi: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return _link_curvature(shape, ff, pi, U @ weights)

    return Constraint(dim=U.shape[1], fun=fun, jac=jac, hess=hess)


def moment_constraint(shape: TableShape, model: str) -> Constraint:
    """A moment family's h(pi) = c(F' pi) with its derivatives from ``moments``."""

    def prob(pi: np.ndarray) -> ProbTable:
        return ProbTable(shape, pi / pi.sum())

    return Constraint(
        dim=degrees_of_freedom(model, shape),
        fun=lambda pi: moment_vector(model, prob(pi)),
        jac=lambda pi: moment_jacobian(model, prob(pi)),
        hess=lambda pi, weights: moment_curvature(model, prob(pi), weights),
    )


def moment_curvature(model: str, p: ProbTable, weights: np.ndarray):
    """sum_j w_j d2 h_j / dpi dpi' of ``moments.constraint_vector`` by the
    chain rule, F (sum_j w_j hess c_j(m)) F'; 0.0 for a linear model."""
    hess = _constraint_jet(model, p.shape, _coordinates(p))[2]
    if hess is None:
        return 0.0
    F = design.moment_basis(p.shape)
    return F @ np.tensordot(weights, hess, axes=1) @ F.T


# --------------------------------------------------------------------------
# Generic constrained Newton fitter: the KKT oracle of the moment and link fits
# --------------------------------------------------------------------------


def _softmax(xi: np.ndarray) -> np.ndarray:
    z = np.exp(xi - xi.max())
    return z / z.sum()


def _loglik(nvec: np.ndarray, xi: np.ndarray) -> float:
    z = xi - xi.max()
    return float(nvec @ z - nvec.sum() * math.log(np.sum(np.exp(z))))


def _lagrangian_curvature(constraint, pi, mu, H, sig):
    """Hessian of mu'h(softmax(xi)) in log-scale coordinates.

    Splits into the softmax curvature (exact, family independent) and the
    pi-space constraint curvature sandwiched between Sigma factors (supplied
    by the constraint when it is cheap).  Returns None when the constraint
    offers no curvature, in which case the caller stays with Gauss-Newton.
    """
    if constraint.hess is None or not np.any(mu):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        gbar = H.T @ mu
        w = gbar * pi
        T = np.diag(w) - np.outer(w, pi) - np.outer(pi, w)
        T += (w.sum()) * np.outer(pi, pi) - float(gbar @ pi) * sig
        inner = constraint.hess(pi, mu)
        if np.ndim(inner) != 0:  # zero-curvature constraints return a scalar 0
            # sig inner sig with sig = diag(pi) - pi pi', in O(N^2)
            a = pi * (inner @ pi)
            T += inner * np.outer(pi, pi) - np.outer(a, pi) - np.outer(pi, a)
            T += a.sum() * np.outer(pi, pi)
    if not np.all(np.isfinite(T)):
        return None  # curvature useless at this iterate; Gauss-Newton instead
    return T


def _newton_loop(nvec, constraint, xi, max_iter, tol_constraint, tol_loglik):
    """One run of the damped Lagrangian Newton iteration.

    Returns (xi, converged, iterations, residual, trace).
    """
    n = float(nvec.sum())
    N = len(nvec)
    d = constraint.dim
    trace: list[tuple[int, float, float]] = []
    prev_ll = None
    nu = 1.0  # exact-penalty weight for the line search merit
    gauge = np.ones((N, N)) / N
    mu_carry = np.zeros(d)

    stationarity = math.inf
    for it in range(1, max_iter + 1):
        pi = _softmax(xi)
        h = np.atleast_1d(np.asarray(constraint.fun(pi), dtype=float))
        hmax = float(np.max(np.abs(h))) if d else 0.0
        ll = _loglik(nvec, xi)
        rel = math.inf if prev_ll is None else abs(ll - prev_ll) / (1.0 + abs(ll))
        trace.append((it, hmax, rel))
        # stationarity (from the previous multiplier estimate) guards against
        # declaring victory at a point where the line search merely stalled
        if hmax < tol_constraint and rel < tol_loglik and stationarity < 1e-7:
            return xi, True, it, hmax, trace
        prev_ll = ll

        H = np.atleast_2d(np.asarray(constraint.jac(pi), dtype=float))
        sig = np.diag(pi) - np.outer(pi, pi)
        C = H @ sig  # constraint Jacobian in log-scale coordinates
        grad = nvec - n * pi
        stationarity = (
            float(np.max(np.abs(grad + C.T @ mu_carry))) / (1.0 + n) if d else 0.0
        )
        # tiny ridge keeps the block solvable when boundary cells underflow
        A_gn = n * (sig + gauge + 1e-12 * np.eye(N))
        curvature = _lagrangian_curvature(constraint, pi, mu_carry, H, sig)

        def try_point(xi_new, nu):
            xi_new = xi_new - xi_new.max()
            try:
                h_new = np.atleast_1d(
                    np.asarray(constraint.fun(_softmax(xi_new)), dtype=float)
                )
            except (ValueError, FloatingPointError):
                return None
            if not np.all(np.isfinite(h_new)):
                return None
            return xi_new, h_new, -_loglik(nvec, xi_new) + nu * float(
                np.sum(np.abs(h_new))
            )

        accepted = None
        modes = ("exact", "gauss-newton") if curvature is not None else ("gauss-newton",)
        for mode in modes:
            A = A_gn - curvature if mode == "exact" else A_gn
            K = np.zeros((N + d, N + d))
            K[:N, :N] = A
            K[:N, N:] = -C.T
            K[N:, :N] = C
            rhs = np.concatenate([grad, -h])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError as exc:
                if mode == "exact":
                    continue
                raise FitError(
                    f"constraint Jacobian lost rank at iteration {it}", trace
                ) from exc
            if not np.all(np.isfinite(sol)):
                if mode == "exact":
                    continue
                raise FitError(f"non-finite Newton step at iteration {it}", trace)
            delta, mu = sol[:N], sol[N:]
            width = float(np.max(np.abs(delta)))
            if width > 8.0:  # keep the constraint linearization honest
                delta = delta * (8.0 / width)
            quad = float(delta @ (A @ delta))
            if quad <= 0:
                continue  # not a descent direction for the merit; other mode

            # track the current multipliers rather than ratcheting: one early
            # ill-scaled solve must not freeze the penalty at a huge value
            nu = max(2.0 * float(np.max(np.abs(mu), initial=0.0)) + 1.0, 0.1 * nu)
            merit0 = -ll + nu * float(np.sum(np.abs(h)))
            predicted = quad + 0.5 * nu * float(np.sum(np.abs(h)))
            step = 1.0
            for attempt in range(30):
                cand = try_point(xi + step * delta, nu)
                if cand is not None and cand[2] <= merit0 - 1e-4 * step * predicted:
                    accepted = (cand, mu)
                    break
                if attempt == 0 and cand is not None:
                    # Second-order correction: re-solve with the trial point's
                    # curvature-induced violation, defeating the Maratos
                    # rejection of full steps near the solution.
                    soc = np.linalg.solve(K, np.concatenate([np.zeros(N), -cand[1]]))
                    cand_soc = try_point(xi + delta + soc[:N], nu)
                    if cand_soc is not None and cand_soc[2] <= merit0 - 1e-4 * predicted:
                        accepted = (cand_soc, mu)
                        break
                step *= 0.5
            if accepted is not None:
                break
        if accepted is None:
            return xi, False, it, hmax, trace
        xi = accepted[0][0]
        mu_carry = accepted[1]
    pi = _softmax(xi)
    h = np.atleast_1d(np.asarray(constraint.fun(pi), dtype=float))
    return xi, False, max_iter, float(np.max(np.abs(h), initial=0.0)), trace


def fit_hlp(
    counts: CountTable,
    constraint: Constraint,
    *,
    max_iter: int = MAX_ITER,
    tol_constraint: float = TOL_CONSTRAINT,
    tol_loglik: float = TOL_LOGLIK,
) -> FitResult:
    """Maximum likelihood under a smooth constraint h(pi) = 0, on constraint.dim df."""
    shape = counts.shape
    nvec = counts.counts
    if constraint.dim == 0:
        pihat = counts.proportions()
        return _finish(None, counts, pihat, None, constraint.dim, 0, 0.0)

    start = np.log(counts.smoothed_proportions().probs)
    attempts = (start, np.zeros(shape.n_cells))
    last_trace = None
    for attempt, xi0 in enumerate(attempts):
        xi, ok, iters, resid, trace = _newton_loop(
            nvec, constraint, xi0.copy(), max_iter, tol_constraint, tol_loglik
        )
        last_trace = trace
        if ok:
            pihat = ProbTable(shape, _softmax(xi))
            return _finish(None, counts, pihat, None, constraint.dim, iters, resid)
    raise FitError(
        f"no convergence within {max_iter} iterations (after uniform restart); "
        f"final constraint residual {resid:.3e}",
        last_trace,
    )
