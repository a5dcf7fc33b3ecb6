"""Maximum-likelihood fitting of the symmetry and asymmetry models.

Complete symmetry has a closed form.  The link families gs/els/ls are fitted
in their own parameters: pi_i = S_o c_i(theta), where the orbit masses S_o
are the observed orbit proportions and the within-orbit shares c_i come from
the link-space engine (``linkspace``), so only theta is iterated (``fit_link``).
Power links with lam > 1 are the exception and take the constrained route.

The moment families me/ve/ce/me2 are fitted by maximizing the multinomial log
likelihood subject to smooth constraints h(pi) = 0 (``fit_hlp``).  Their
constraints are functions h(pi) = c(F' pi) of a few moment coordinates
(``moments``), so the Jacobian grad c' F' and the curvature F (hess c) F' come
from derivatives in k = T + T(T+1)/2 dimensions.  The iteration works on
cell log scales (pi = softmax(xi)), which keeps every iterate strictly
positive and the unit-sum exact, and takes damped Newton steps on the
Lagrangian stationarity system with the multinomial information as
curvature.  ``linkform_constraint`` states the link families in the same
form; it fits the lam > 1 links and is the independent oracle for ``fit_link``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import design
from .moments import (
    CE,
    ME,
    ME2,
    MOMENT_FAMILIES,
    VE,
    constraint_curvature as moment_curvature,
    constraint_jacobian as moment_jacobian,
    constraint_vector as moment_vector,
)
from .chi2 import chi2_sf
from .divergences import FFunction, HELLINGER, KL, PEARSON, POWER
from .linkspace import InfeasibleParameterError, LinkPoint, link_space
from .tables import (
    CountTable,
    DegenerateOrbitError,
    ProbTable,
    TableShape,
    all_cells,
    cell_index,
    orbit_structure,
    orbit_sums,
)
from .wald import f_jacobian

SYMMETRY = "s"
FAMILIES = (SYMMETRY,) + design.ASYMMETRY_FAMILIES + MOMENT_FAMILIES

# A theta-space link fit stops once its projected score is below
# SCORE_TOL * (1 + n).
SCORE_TOL = 1e-10


class FitError(RuntimeError):
    """Fit did not converge; carries the residual trace for diagnosis."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


class InvalidFitError(ValueError):
    """Fitted frequencies unusable for the requested statistic."""


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus, for the asymmetry families, its f-function."""

    family: str
    ff: FFunction | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.family in design.ASYMMETRY_FAMILIES and self.ff is None:
            raise ValueError(f"family {self.family!r} needs an f-function")

    @property
    def label(self) -> str:
        if self.ff is not None and self.family in design.ASYMMETRY_FAMILIES:
            return f"{self.family}[{self.ff.name}]"
        return self.family


@dataclass
class FitResult:
    spec: ModelSpec | None
    counts: CountTable
    pihat: ProbTable
    mhat: np.ndarray
    theta_prime: np.ndarray | None
    g2: float
    df: int
    pvalue: float
    converged: bool
    iterations: int
    constraint_residual: float

    @property
    def shape(self) -> TableShape:
        return self.counts.shape


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
    """Pairwise probability equalities within each orbit (linear)."""
    struct = orbit_structure(shape)
    rows = []
    for members in struct.members:
        for other in members[1:]:
            row = np.zeros(shape.n_cells)
            row[members[0]] = 1.0
            row[other] = -1.0
            rows.append(row)
    A = np.array(rows) if rows else np.zeros((0, shape.n_cells))
    return Constraint(
        dim=A.shape[0], fun=lambda pi: A @ pi, jac=lambda pi: A, hess=_zero_hess
    )


def _link_curvature(
    shape: TableShape, ff: FFunction, pi: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """sum_i w_i d2 F(x_i) / dpi dpi' with x_i = |D(i)| pi_i / orbit sum.

    Orbit-local: x_i depends only on pi_i and its orbit's total.
    """
    struct = orbit_structure(shape)
    n_cells = shape.n_cells
    x = pi * struct.size_of_cell / orbit_sums(shape, pi)
    f2 = np.asarray(ff.f_second(x))
    f3 = np.asarray(ff.f_third(x))
    out = np.zeros((n_cells, n_cells))
    for members in struct.members:
        m = len(members)
        S = float(pi[members].sum())
        for i in members:
            # a = dx_i/dpi (supported on the orbit), and the rank-one + shared
            # parts of d2 x_i
            a = np.full(m, -len(members) * pi[i] / S**2)
            a[np.where(members == i)[0][0]] += m / S
            w = weights[i]
            block = w * f3[i] * np.outer(a, a)
            # d2 x_i / dpi_j dpi_k = -m [delta_ij + delta_ik] / S^2 + 2 m pi_i / S^3
            block += w * f2[i] * (2.0 * m * pi[i] / S**3)
            i_local = np.where(members == i)[0][0]
            block[i_local, :] -= w * f2[i] * m / S**2
            block[:, i_local] -= w * f2[i] * m / S**2
            out[np.ix_(members, members)] += block
    return out


def linkform_constraint(shape: TableShape, family: str, ff: FFunction) -> Constraint:
    """U' F(pi / pi_sym) = 0 for the requested asymmetry family."""
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


# --------------------------------------------------------------------------
# Generic constrained Newton fitter
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
            T += sig @ inner @ sig
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
    spec: ModelSpec | None = None,
    df: int | None = None,
    max_iter: int = 200,
    tol_constraint: float = 1e-9,
    tol_loglik: float = 1e-10,
) -> FitResult:
    """Maximum likelihood under h(pi) = 0 for a smooth constraint h."""
    shape = counts.shape
    nvec = counts.counts
    n = counts.n
    if constraint.dim == 0:
        pihat = counts.proportions()
        return _finish(spec, counts, pihat, None, df or 0, True, 0, 0.0)

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
            return _finish(
                spec, counts, pihat, None,
                constraint.dim if df is None else df, True, iters, resid,
            )
    raise FitError(
        f"no convergence within {max_iter} iterations (after uniform restart); "
        f"final constraint residual {resid:.3e}",
        last_trace,
    )


def _theta_prime(shape: TableShape, spec: ModelSpec, pihat: ProbTable) -> np.ndarray:
    """Difference-basis parameters recovered from the fitted link values."""
    ds = design.design_matrix(shape, spec.family)
    struct = orbit_structure(shape)
    pi_s = orbit_sums(shape, pihat.probs) / struct.size_of_cell
    zeta = np.asarray(spec.ff.F(pihat.probs / pi_s))
    theta, *_ = np.linalg.lstsq(ds.X, zeta, rcond=None)
    return theta


def _finish(spec, counts, pihat, theta_prime, df, converged, iterations, resid, mhat=None):
    if mhat is None:
        mhat = counts.n * pihat.probs
    stat = g2(counts, mhat)
    return FitResult(
        spec=spec,
        counts=counts,
        pihat=pihat,
        mhat=mhat,
        theta_prime=theta_prime,
        g2=stat,
        df=df,
        pvalue=pvalue(stat, df),
        converged=converged,
        iterations=iterations,
        constraint_residual=resid,
    )


# --------------------------------------------------------------------------
# Link families in theta space
# --------------------------------------------------------------------------


def _link_loglik(nvec: np.ndarray, has_count: np.ndarray, pt: LinkPoint) -> float:
    """sum_i n_i log g_i: the within-orbit log likelihood up to a constant."""
    g = pt.g[has_count]
    if np.any(g <= 0):
        return -math.inf
    return float(nvec[has_count] @ np.log(g))


def _theta_information(space, pt, a, nvec, has_count, orbit_counts):
    """(B, mode): minus the log-likelihood Hessian in theta when it is positive
    definite ("newton"), else the Fisher information ("fisher", or
    "fisher-pinv" when it is singular because the table leaves some theta
    direction unidentified).

    With R_o = sum_o n_i / u_i and W_o = sum_o dg/dy, the Hessian is
    -sum_i [lam n_i / u_i^2 + (1 - lam) (R_o / W_o) g_i / u_i^2] a_i a_i',
    where a_i = dy_i / dtheta; the information weights are (N_o / |o|) g_i / u_i^2.
    """
    lam, orbits, oid = space.lam, space.orbits, space.orbits.oid
    zero = np.zeros_like(pt.g)
    wu = np.divide(pt.w, pt.u, out=zero.copy(), where=pt.g > 0)
    nu = np.divide(nvec, pt.u, out=zero.copy(), where=has_count)
    nu2 = np.divide(nu, pt.u, out=zero.copy(), where=has_count)
    hessian = lam * nu2 + (1.0 - lam) * (orbits.sum(nu) / orbits.sum(pt.w))[oid] * wu
    fisher = (orbit_counts / orbits.size)[oid] * wu
    for mode, weight in (("newton", hessian), ("fisher", fisher)):
        B = a.T @ (weight[:, None] * a)
        if not np.all(np.isfinite(B)):
            continue
        try:
            np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            continue
        return B, mode
    if not np.all(np.isfinite(B)):
        raise np.linalg.LinAlgError("non-finite information matrix")
    return B, "fisher-pinv"


def _constrained_step(B, score, C, r, pinv=False):
    """(d, multipliers) maximizing score'd - d'Bd/2 subject to C d = r.

    The rows of held cells can be linearly dependent (two cells with one
    design row, say), so with constraints (or a singular B) the least-norm
    solution is used; it splits the multiplier of a repeated row evenly.  The
    right side must then lie in the range of the system.
    """
    d, m = len(score), len(r)
    if not (m or pinv):
        return np.linalg.solve(B, score), np.zeros(0)
    K = np.block([[B, C.T], [C, np.zeros((m, m))]])
    rhs = np.concatenate([score, r])
    sol = np.linalg.lstsq(K, rhs, rcond=1e-12)[0]
    if np.max(np.abs(K @ sol - rhs)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
        raise np.linalg.LinAlgError("score outside the range of the information")
    return sol[:d], -sol[d:]


def _link_score(space, pt, nvec, has_count):
    """(dy/dtheta, score of sum_i n_i log g_i)."""
    a = space.slopes(pt)
    return a, a.T @ np.divide(nvec, pt.u, out=np.zeros_like(pt.u), where=has_count)


def _link_start(space, ratio: np.ndarray, ff: FFunction) -> LinkPoint | None:
    """The point whose link values fit F(ratio) best in least squares, if feasible."""
    if not np.all(ratio > 0):
        return None
    with np.errstate(over="ignore"):
        theta = space.theta_of(ff.F(ratio))
    if not np.all(np.isfinite(theta)):
        return None
    try:
        return space.evaluate(theta)
    except InfeasibleParameterError:
        return None


def _link_ascent(space, pt, nvec, orbit_counts, max_iter, tol, tol_edge):
    """Climb sum_i n_i log g_i from ``pt``; returns (point, loglik, iterations).

    Damped Newton (Fisher scoring where the Hessian is indefinite) with a
    backtracking line search that stays in the F^{-1} domain.  For a lam > 0
    link, a zero-count cell whose share reaches 0 is held on the domain edge
    as an active constraint, and released when its multiplier turns negative.
    Converged when the projected score is below ``tol`` and every held cell
    is within ``tol_edge`` of the edge.
    """
    lam, n = space.lam, float(nvec.sum())
    has_count = nvec > 0
    holdable = ~has_count & (lam > 0)
    edge = -1.0 / lam if lam > 0 else 0.0
    held = pt.held
    a, score = _link_score(space, pt, nvec, has_count)
    ll = _link_loglik(nvec, has_count, pt)
    trace: list[tuple] = []
    for it in range(max_iter + 1):
        if not np.all(np.isfinite(score)):
            raise FitError(f"non-finite score at iteration {it}", trace)
        if not held.any() and float(np.max(np.abs(score))) <= tol:
            trace.append((it, ll, float(np.max(np.abs(score))), 0.0, "stationary"))
            break
        active = held.copy()
        try:
            B, mode = _theta_information(space, pt, a, nvec, has_count, orbit_counts)
            C, r = a[held], edge - pt.y[held]
            step, mu = _constrained_step(B, score, C, r, mode == "fisher-pinv")
            kkt = float(np.max(np.abs(score + C.T @ mu)))
            resid = float(np.max(np.abs(r), initial=0.0))
            # Release held cells with clearly negative multipliers, one at a
            # time, while the freed cell then moves off the edge; a cell that
            # the other held cells pin to it stays held.
            while mu.size and mu.min() < -1e-6 * (1.0 + n):
                cell = np.flatnonzero(active)[np.argmin(mu)]
                trial = active.copy()
                trial[cell] = False
                r_trial = edge - pt.y[trial]
                freed, freed_mu = _constrained_step(
                    B, score, a[trial], r_trial, mode == "fisher-pinv"
                )
                if a[cell] @ freed <= 1e-9 * np.linalg.norm(a[cell]) * np.linalg.norm(freed):
                    break
                active, step, mu, r = trial, freed, freed_mu, r_trial
        except np.linalg.LinAlgError as exc:
            raise FitError(
                f"singular information matrix at iteration {it}: {exc}", trace
            ) from exc
        trace.append((it, ll, kkt, resid, mode))
        if kkt <= tol and resid <= tol_edge and np.array_equal(active, held):
            break
        if it == max_iter:
            raise FitError(
                f"no convergence within {max_iter} iterations; "
                f"final score norm {kkt:.3e}",
                trace,
            )

        # Exact-penalty merit; its slope along the step is negative.  A step
        # whose predicted gain is below 1e-9 in G2 units is taken in full: the
        # merit cannot resolve it from rounding.
        nu = 2.0 * float(np.max(np.abs(mu), initial=0.0)) + 1.0
        merit0 = -ll + nu * float(np.sum(np.abs(r)))
        quad = float(step @ B @ step)
        slope = min(-quad + float(mu @ r) - nu * float(np.sum(np.abs(r))), 0.0)
        slack = math.inf if quad < 1e-9 else 1e-13 * (1.0 + abs(merit0))
        # A free zero-count cell that the step would carry over the edge
        # blocks it there and is held from then on.
        t, blockers = 1.0, np.zeros(0, dtype=np.intp)
        free_zero = np.flatnonzero(holdable & ~active)
        if free_zero.size:
            dy = a[free_zero] @ step
            with np.errstate(divide="ignore"):
                reach = np.where(dy < 0, pt.u[free_zero] / (-lam * dy), np.inf)
            if reach.min() < 1.0:
                t = float(reach.min())
                blockers = free_zero[reach <= t * (1.0 + 1e-9)]
        t_block = t
        infeasible = 0
        for _ in range(60):
            hold = active.copy()
            if t == t_block:
                hold[blockers] = True
            try:
                new = space.evaluate(pt.theta + t * step, hold, pt.gamma, holdable)
            except InfeasibleParameterError:
                infeasible += 1
                t *= 0.5
                continue
            ll_new = _link_loglik(nvec, has_count, new)
            merit = -ll_new + nu * float(np.sum(np.abs(edge - new.y[new.held])))
            if merit <= merit0 + 1e-4 * t * slope + slack:
                break
            t *= 0.5
        else:
            reason = (
                "an orbit normalizer is infeasible at every trial step"
                if infeasible == 60
                else "no trial step improves the likelihood"
            )
            raise FitError(
                f"line search failed at iteration {it}: {reason}; "
                f"score norm {kkt:.3e}",
                trace,
            )
        pt, ll, held = new, ll_new, new.held
        a, score = _link_score(space, pt, nvec, has_count)

    return pt, ll, it


def fit_link(
    counts: CountTable,
    spec: ModelSpec,
    *,
    df: int | None = None,
    max_iter: int = 200,
    tol_constraint: float = 1e-9,
) -> FitResult:
    """Maximum likelihood of a gs/els/ls model in its own parameters theta.

    With pi_i = S_o c_i(theta) the log likelihood separates into
    sum_o N_o log S_o + sum_i n_i log c_i(theta), so the orbit masses S_o are
    the observed orbit proportions and only theta is iterated, to a projected
    score below SCORE_TOL * (1 + n), with every cell held on the F^{-1} edge
    within tol_constraint of it.  Links with 0 <= lam <= 1 make the second
    sum concave.  Steeper negative links can have several maxima (random
    sparse tables show them at lam = -1.1 and -1.5, never at lam = -1,
    Hellinger's -1/2 or -1/4), so links with lam < -1 are climbed from three
    starts, keeping the best.  Links with lam > 1 are not covered: their
    edge is not modelled by the held cells (see ``fit_model``).
    """
    shape = counts.shape
    space = link_space(shape, spec.family, spec.ff)
    nvec, n = counts.counts, counts.n
    orbit_counts = space.orbits.sum(nvec)
    tol = SCORE_TOL * (1.0 + n)

    def climb(link, start):
        return _link_ascent(link, start, nvec, orbit_counts, max_iter, tol, tol_constraint)

    # theta = 0 is the symmetric fit; a table it already fits takes no step.
    # Otherwise start near the saturated fit, as the constrained fitter does;
    # a link with several maxima also starts from the KL fit and theta = 0.
    zero = np.zeros(space.X.shape[1])
    starts = []
    if float(np.max(np.abs(space.centered.T @ nvec))) > tol:
        p = counts.smoothed_proportions().probs
        ratio = p * space.orbits.size[space.orbits.oid] / orbit_sums(shape, p)
        starts.append(_link_start(space, ratio, spec.ff))
        if space.lam < -1.0:
            kl = FFunction(KL)
            kl_space = link_space(shape, spec.family, kl)
            kl_start = _link_start(kl_space, ratio, kl)
            try:
                if kl_start is None:
                    kl_start = kl_space.evaluate(zero)
                kl_pt = climb(kl_space, kl_start)[0]
                starts.append(_link_start(space, kl_pt.g, spec.ff))
            except FitError:
                pass
            starts.append(space.evaluate(zero))
    starts = [pt for pt in starts if pt is not None] or [space.evaluate(zero)]
    best, error = None, None
    for start in starts:
        try:
            result = climb(space, start)
        except FitError as exc:
            error = error or exc
            continue
        if best is None or result[1] > best[1]:
            best = result
    if best is None:
        raise error
    pt, _, iterations = best

    lam = space.lam
    resid = float(np.max(np.abs(-1.0 / lam - pt.y[pt.held]), initial=0.0)) if lam > 0 else 0.0
    oid = space.orbits.oid
    mhat = (orbit_counts / space.orbits.size)[oid] * pt.g
    theta_prime = np.concatenate([pt.theta, pt.gamma])
    return _finish(
        spec, counts, ProbTable(shape, mhat / mhat.sum()), theta_prime,
        degrees_of_freedom(spec.family, shape) if df is None else df,
        True, iterations, resid, mhat=mhat,
    )


# --------------------------------------------------------------------------
# Family-level fitting
# --------------------------------------------------------------------------


def fit_symmetry(counts: CountTable) -> FitResult:
    """Closed-form MLE of complete symmetry: orbit averages of the counts."""
    shape = counts.shape
    struct = orbit_structure(shape)
    mhat = orbit_sums(shape, counts.counts) / struct.size_of_cell
    pihat = ProbTable(shape, mhat / counts.n)
    stat = g2(counts, mhat)
    df = degrees_of_freedom(SYMMETRY, shape)
    return FitResult(
        spec=ModelSpec(SYMMETRY),
        counts=counts,
        pihat=pihat,
        mhat=mhat,
        theta_prime=None,
        g2=stat,
        df=df,
        pvalue=pvalue(stat, df),
        converged=True,
        iterations=0,
        constraint_residual=0.0,
    )


def fit_model(
    counts: CountTable,
    spec: ModelSpec,
    *,
    max_iter: int = 200,
    tol_constraint: float = 1e-9,
    tol_loglik: float = 1e-10,
) -> FitResult:
    """Dispatch a family to its fit: closed form, theta-space link fit, or constrained fit.

    Every family takes the same keywords.  ``max_iter`` caps the iterations
    of every fit and ``tol_constraint`` its constraint residual (for a link
    fit, the distance of held cells from the F^{-1} edge); ``tol_loglik``
    is the constrained fits' relative log-likelihood change, which a link
    fit replaces by its score test (``SCORE_TOL``).
    """
    shape = counts.shape
    df = degrees_of_freedom(spec.family, shape)
    if spec.family == SYMMETRY:
        return fit_symmetry(counts)
    constrained = dict(
        spec=spec, df=df, max_iter=max_iter,
        tol_constraint=tol_constraint, tol_loglik=tol_loglik,
    )
    if spec.family not in design.ASYMMETRY_FAMILIES:
        return fit_hlp(counts, moment_constraint(shape, spec.family), **constrained)
    if spec.ff.link_lam <= 1.0:
        return fit_link(counts, spec, df=df, max_iter=max_iter, tol_constraint=tol_constraint)
    # On the edge of a lam > 1 link dg/dy is infinite, so a zero cell there
    # pins its orbit's normalizer instead of leaving it, which fit_link's held
    # cells do not model; the constrained fit covers these links.
    fit = fit_hlp(counts, linkform_constraint(shape, spec.family, spec.ff), **constrained)
    fit.theta_prime = _theta_prime(shape, spec, fit.pihat)
    return fit


def g2(counts: CountTable, mhat: np.ndarray) -> float:
    """Likelihood-ratio statistic 2 sum n log(n / mhat), with 0 log 0 = 0."""
    nvec = counts.counts
    mhat = np.asarray(mhat, dtype=float)
    pos = nvec > 0
    if np.any(mhat[pos] <= 0):
        raise InvalidFitError("fitted frequencies must be positive where counts are")
    value = float(2.0 * np.sum(nvec[pos] * np.log(nvec[pos] / mhat[pos])))
    if value < 0:
        if value < -1e-8:
            raise InvalidFitError(
                f"negative statistic {value}: fitted mass does not match the total"
            )
        value = 0.0  # roundoff at a perfect fit
    return value


def table1_df(family: str, r: int, T: int) -> int:
    """Degrees-of-freedom formulas by family (may be negative for tiny tables)."""
    L = math.comb(r + T - 1, T)
    cells = r**T
    if family == SYMMETRY:
        return cells - L
    if family == design.GS:
        return cells - L - (T * T + 3 * T - 6) // 2
    if family == design.ELS:
        return cells - L - 2 * T + 2
    if family == design.LS:
        return cells - L - T + 1
    if family == ME2:
        return (T * T + 3 * T - 6) // 2
    if family in (ME, VE):
        return T - 1
    if family == CE:
        return (T * T - T - 2) // 2
    raise ValueError(f"unknown model family {family!r}")


def degrees_of_freedom(family: str, shape: TableShape) -> int:
    """Table 1's count, except that me2 counts its independent constraint rows.

    The two differ only for r = 2, where the squared-score differences
    repeat the first-order ones.
    """
    if family == ME2:
        return len(design.independent_moment_rows(shape))
    df = table1_df(family, shape.r, shape.T)
    if df < 0:
        raise ValueError(
            f"family {family!r} has negative degrees of freedom ({df}) "
            f"for r={shape.r}, T={shape.T}"
        )
    return df


def pvalue(stat: float, df: int) -> float:
    """Upper chi-square tail probability of the statistic."""
    if stat < 0:
        raise ValueError(f"test statistic must be non-negative, got {stat}")
    return chi2_sf(stat, df)


# --------------------------------------------------------------------------
# Potential parameters and discrepancy measures
# --------------------------------------------------------------------------


def linear_coefficients(fit: FitResult) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (alpha, B) of a fitted asymmetry model."""
    if fit.spec is None or fit.spec.family not in design.ASYMMETRY_FAMILIES:
        raise ValueError("linear coefficients exist only for asymmetry-family fits")
    if fit.theta_prime is None:
        raise ValueError("fit carries no recovered parameters")
    ds = design.design_matrix(fit.shape, fit.spec.family)
    return design.recover_coefficients(ds, fit.theta_prime)


def potential_params(fit: FitResult) -> dict[tuple[int, ...], float]:
    """Per-cell potential parameters, plugging the MLEs into the family formula."""
    alpha, B = linear_coefficients(fit)
    shape = fit.shape
    pred = design.cell_predictor(shape, alpha, B)
    sizes = orbit_structure(shape).size_of_cell
    ff = fit.spec.ff
    if ff.family == KL or (ff.family == POWER and ff.lam == 0.0):
        theta = np.exp(pred)
    elif ff.family == PEARSON:
        theta = pred / sizes
    elif ff.family == HELLINGER:
        theta = -0.5 * np.sqrt(sizes) * pred
    else:
        theta = ff.lam * pred / sizes**ff.lam
    return {cell: float(theta[i]) for i, cell in enumerate(all_cells(shape))}


def discrepancy_measure(
    fit: FitResult,
    cell_a: tuple[int, ...],
    cell_b: tuple[int, ...],
    ff: FFunction | None = None,
) -> float:
    """Fitted conditional-probability comparison between two symmetric cells.

    Ratio for the KL link, difference for Pearson, inverse-square-root
    difference for Hellinger, power difference otherwise.  The benchmark under
    complete symmetry is 1 for the ratio and 0 for the differences.
    """
    if sorted(cell_a) != sorted(cell_b):
        raise ValueError(f"cells {cell_a} and {cell_b} are not in the same orbit")
    ff = ff or (fit.spec.ff if fit.spec else None)
    if ff is None:
        raise ValueError("no f-function available to pick the measure")
    # only this orbit needs mass: the link fits leave empty orbits at exactly 0
    ia, ib = cell_index(fit.shape, cell_a), cell_index(fit.shape, cell_b)
    probs = fit.pihat.probs
    mass = float(orbit_sums(fit.shape, probs)[ia])
    if mass <= 0:
        raise DegenerateOrbitError(f"orbit of cell {cell_a} has zero fitted probability")
    ca, cb = probs[ia] / mass, probs[ib] / mass
    if ff.family == KL or (ff.family == POWER and ff.lam == 0.0):
        return float(ca / cb)
    if ff.family == PEARSON:
        return float(ca - cb)
    if ff.family == HELLINGER:
        return float(ca**-0.5 - cb**-0.5)
    return float(ca**ff.lam - cb**ff.lam)
