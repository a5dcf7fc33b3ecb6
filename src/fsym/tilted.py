"""The moment families fitted through the tilted multinomial, a small convex dual.

Maximizing sum_i n_i log pi_i subject to G' pi = b, 1' pi = 1 and pi >= 0 is
the empirical-likelihood problem (Owen, *Empirical Likelihood*, 2001, ch. 3;
Qin and Lawless, 1994, *Ann. Statist.*).  Its dual has d + 1 unknowns
v = (nu, lam).  With the slack s_i = nu + lam'(g_i - b) of cell i, the fitted
table is the tilted one, pi_i = n_i / s_i, on the observed cells, and v
minimizes the convex

    phi(v) = nu - sum_i n_i log s_i        (observed cells)

subject to s_j >= 0 on every zero-count cell.  A zero-count cell has mass
only where its slack is exactly 0; the mass is that row's multiplier.  At the
solution nu = n.  ``TiltedDual.solve`` takes damped Newton steps on phi,
O(N d^2) each, with an active set of zero cells held at slack 0, and returns
only a certified point (``Tilt``).  It stores v as w = (nu - lam'b, lam), so
that the slacks, and with them a warm start, do not depend on b; a tilt also
carries the slacks, masses and dual Hessian at w, which a solve of the same
dual warm-started there uses for its first step.  With no cell held and
observed rows that span, the step is the plain Newton step, computed only
once the certificate fails.  Otherwise the step, its masses, its ratio test
and the certificate's curvature read one SVD of the held rows, their face
(``TiltedDual._face``).  A dual is built with the singular values of the
observed rows alone, for its rank; the basis of their span is computed only
where they do not span.

The moment families use it in two ways (``fit``):

* me and me2 are linear, A m = 0 in the moment coordinates m = F' pi, so the
  fit is one solve with G = F A' and b = 0;
* ve and ce maximize the profile l*(m) = max {loglik : F' pi = m}, one
  solve with G = F and b = m, subject to c(m) = 0, by Newton's method on
  the joint KKT system of that solve and the constraints (``_kkt_fit``;
  Aitchison and Silvey, 1958, *Ann. Math. Statist.*; Lang, 2004, *Ann.
  Statist.*).  It iterates on the dual w, the masses of the held zero cells
  and the constraint multipliers at once from the observed table, each step
  one square solve with no inner dual solve.  Zero cells are held on their
  face as in the dual: a ratio test stops a step at a zero cell's face, the
  cell's slack row joins the system as an equality and its mass is the
  row's multiplier, and a held cell whose mass the step drives negative is
  released.  Where the observed rows do not span, lam = J' mu fixes the
  directions of w that they do not see.  The end is certified by one
  warm-started dual solve and the stationarity and second-order test of
  ``_sqp_test`` and ``_lagrangian``.  Only where an observed margin is
  constant, so that c is not defined at the observed table, does the fit
  run sequential quadratic programming on l* from the smoothed table
  (``_profile_fit``).  With two categories ve is a union of linear models
  (``_two_category_ve``).

No step builds an N x N array: the largest is N x (d + 1), with d <= k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import design
from .moments import CE, ME, ME2, VE, DegenerateMarginalError, _constraint_jet
from .tables import CountTable

# A held cell whose mass falls below -MASS_TOL is released.
MASS_TOL = 1e-12
# An inactive zero cell's slack must be at least -SLACK_TOL * n.
SLACK_TOL = 1e-10
# Relative singular-value cut for the rank of rows and of the observed rows.
RANK_TOL = 1e-10
# The subproblems of the ve/ce fits stop at this dual KKT residual.
INNER_TOL = 1e-12
# A ve/ce fit is stationary once its lam is within STATIONARITY_TOL * (1 + n)
# of the span of the constraint gradients.
STATIONARITY_TOL = 1e-9
# A predicted gain below max(1e-9, ROUNDING * (1 + |objective|)) is lost in rounding.
ROUNDING = 64 * np.finfo(float).eps


class CertificateError(RuntimeError):
    """A dual iteration stopped without its certificate; the message names
    the criterion that failed, and ``trace`` holds one record per step."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


class Infeasible(ValueError):
    """No table meets the moment conditions, or, given a cutoff, none meets
    them with a log likelihood above it."""


@dataclass
class Tilt:
    """A certified solution of one dual problem."""

    w: np.ndarray  # (nu - lam'b, lam): the slacks are A w
    active: list  # zero-count cells held at slack 0
    probs: np.ndarray  # the fitted table, summing to one
    loglik: float  # sum n_i log probs_i
    iterations: int
    # Directions of w that no observed or held row sees (columns): where
    # there are some, the maximum as a function of b has a kink, and is
    # smooth only on the face of b that keeps lam'b fixed along them.
    kernel: np.ndarray
    # Hessian in b of the maximal log likelihood along that face,
    # -E'Z (Z'HZ)^-1 Z'E with Z the seen directions that keep the held rows,
    # H the dual Hessian and E' dropping the intercept
    curvature: np.ndarray
    # (dual, observed slacks, observed masses, dual Hessian) at w, which a
    # solve of that same dual warm-started here takes instead of recomputing
    point: tuple | None = None

    @property
    def lam(self) -> np.ndarray:
        return self.w[1:]


def _outside(face: tuple, rows: np.ndarray) -> np.ndarray:
    """Which of ``rows`` leave the span of the held rows of ``face`` (with no
    rows held, all of them: every row of A starts with a 1)."""
    return np.linalg.norm(rows @ face[3], axis=1) > 1e2 * RANK_TOL * np.linalg.norm(rows, axis=1)


class TiltedDual:
    """The dual of max sum n_i log pi_i subject to G' pi = b, 1' pi = 1, pi >= 0,
    for one table of counts and one N x d matrix G, solved for any b."""

    def __init__(self, nvec: np.ndarray, G: np.ndarray):
        self.A = np.column_stack([np.ones(len(nvec)), G])
        self.obs = nvec > 0
        self.n_obs = nvec[self.obs]
        self.A_obs = self.A[self.obs]
        self.zero = np.flatnonzero(~self.obs)
        self.A_zero = self.A[self.zero]
        self.n = float(self.n_obs.sum())
        # Along a direction outside the span of the observed rows phi is
        # linear, and the zero-cell slacks alone bound it.
        sv = np.linalg.svd(self.A_obs, compute_uv=False)
        self.spans = np.count_nonzero(sv > RANK_TOL * sv.max()) == self.A.shape[1]
        self.log_const = float(self.n_obs @ np.log(self.n_obs)) - self.n

    @cached_property
    def seen(self) -> np.ndarray:
        """Orthonormal basis (columns) of the span of the observed rows."""
        _, sv, vt = np.linalg.svd(self.A_obs, full_matrices=False)
        return vt[: np.count_nonzero(sv > RANK_TOL * sv.max())].T

    def _face(self, active):
        """(seen, kernel, pinv, null) of the held cells ``active``, from one SVD
        of their rows: ``null`` is an orthonormal basis (columns) of the w that
        keep their slacks at 0, ``seen`` and ``kernel`` split it into the
        directions the observed rows see and do not, ``pinv`` is the rows'
        pseudo-inverse."""
        dim = self.A.shape[1]
        null, pinv = np.eye(dim), np.zeros((dim, 0))
        if active:
            U, sv, vt = np.linalg.svd(self.A[active])
            rank = np.count_nonzero(sv > RANK_TOL * sv.max())
            null, pinv = vt[rank:].T, vt[:rank].T @ (U[:, :rank] / sv[:rank]).T
        if self.spans:
            return null, null[:, :0], pinv, null
        _, sv, vt = np.linalg.svd(self.seen.T @ null)
        rank = np.count_nonzero(sv > RANK_TOL * sv.max(initial=1.0))
        return null @ vt[:rank].T, null @ vt[rank:].T, pinv, null

    def _plan(self, H, grad, w, active, face, tol, release=True):
        """(step, masses, ray, active, face) of the Newton step at w that keeps
        ``active``, of face ``face``, at slack 0, after releasing the held cell
        of most negative mass (one per step, as in a primal active-set method).

        Within the null space of the held rows, a direction that leaves every
        observed slack unchanged but lowers phi is a ray (phi is linear along
        it): where phi falls along it by more than tol / 10, the step is that
        direction, to be taken until a zero cell blocks it.
        """
        Z, kernel, pinv, _ = face
        step = -pinv @ (self.A[active] @ w)  # restore the held slacks to exactly 0
        descent = -kernel @ (kernel.T @ grad)
        if np.max(np.abs(descent), initial=0.0) > 0.1 * tol:
            return descent, np.zeros(len(active)), True, active, face
        step = step - Z @ np.linalg.solve(Z.T @ H @ Z, Z.T @ (grad + H @ step))
        mass = pinv.T @ (grad + H @ step)
        if not (release and active) or mass.min() >= -MASS_TOL:
            return step, mass, False, active, face
        # release the most negative mass if its cell then leaves the edge
        k = int(np.argmin(mass))
        rest = active[:k] + active[k + 1 :]
        freed = self._plan(H, grad, w, rest, self._face(rest), tol, release=False)
        if self.A[active[k]] @ freed[0] > 0:
            return freed
        return step, mass, False, active, face

    def solve(
        self,
        b: np.ndarray,
        start: Tilt | None = None,
        *,
        max_iter: int,
        tol: float,
        tol_loglik: float = math.inf,
        cutoff: float = -math.inf,
    ) -> Tilt:
        """The maximum of sum n_i log pi_i subject to G' pi = b.

        Converged when the dual KKT residual, max |sum_i pi_i (1, g_i - b) -
        (1, 0)| over the tilted masses, is at most ``tol``, the relative
        log-likelihood change of the last step at most ``tol_loglik``, every
        held cell's mass non-negative and every other zero cell's slack at
        least -SLACK_TOL n.  Raises Infeasible when no table meets G' pi = b,
        or when the dual value, an upper bound on the maximum, falls below
        ``cutoff``; raises CertificateError after ``max_iter`` steps.
        """
        A, A_obs, n_obs, n = self.A, self.A_obs, self.n_obs, self.n
        c = np.concatenate([[1.0], b])
        # the observed slacks at w and phi(w), where the line search left
        # them, and the masses and Hessian there, where the warm start has them
        s_obs = phi = p_obs = H = None
        if start is None:
            w, active = np.zeros(len(c)), []
            w[0] = n
        else:
            w, active = start.w.copy(), list(start.active)
            if start.point is not None and start.point[0] is self:
                s_obs, p_obs, H = start.point[1:]
        face = self._face(active)
        trace: list[tuple] = []
        ll_prev = None
        for it in range(max_iter + 1):
            if s_obs is None:
                s_obs = A_obs @ w
            if phi is None:
                phi = float(c @ w - n_obs @ np.log(s_obs))
            dual = phi + self.log_const
            if dual < cutoff:
                raise Infeasible(f"the dual value {dual:.6g} is below the cutoff {cutoff:.6g}")
            if p_obs is None:
                p_obs = n_obs / s_obs
                H = A_obs.T @ ((p_obs / s_obs)[:, None] * A_obs)
            grad = c - A_obs.T @ p_obs
            if not active and self.spans:  # the plain Newton step, once the certificate fails
                step, mass, ray = None, np.zeros(0), False
            else:
                step, mass, ray, active, face = self._plan(H, grad, w, active, face, tol)

            total = p_obs.sum() + mass.sum()
            ll = float(n_obs @ np.log(p_obs / abs(total)))
            if active:
                resid = float(np.max(np.abs(grad - A[active].T @ mass)))
                free = self.zero[np.bincount(active, minlength=len(A))[self.zero] == 0]
                A_free = A[free]
            else:
                resid = float(np.max(np.abs(grad)))
                free, A_free = self.zero, self.A_zero
            s_free = A_free @ w
            rel = math.inf if ll_prev is None else abs(ll - ll_prev) / (1.0 + abs(ll))
            failed = []
            if resid > tol:
                failed.append(f"dual KKT residual {resid:.3e} > {tol:.1e}")
            if rel > tol_loglik:
                failed.append(f"log-likelihood change {rel:.3e} > {tol_loglik:.1e}")
            if mass.size and mass.min() < -MASS_TOL:
                failed.append(f"a held zero cell has mass {mass.min():.3e}")
            if s_free.size and s_free.min() < -SLACK_TOL * n:
                failed.append(f"a zero cell has slack {s_free.min():.3e}")
            trace.append((it, ll, resid, len(active), "ray" if ray else "newton"))
            if not failed and not ray:
                probs = np.zeros(len(A))
                probs[self.obs] = p_obs
                probs[active] = np.maximum(mass, 0.0)
                Z, kernel, _, _ = face
                curvature = -Z[1:] @ np.linalg.solve(Z.T @ H @ Z, Z[1:].T)
                return Tilt(w, active, probs / probs.sum(), ll, it, kernel, curvature,
                            (self, s_obs, p_obs, H))
            if it == max_iter:
                raise CertificateError(
                    f"no certificate within {max_iter} dual steps: " + "; ".join(failed),
                    trace,
                )
            ll_prev = ll
            if step is None:
                step = -np.linalg.solve(H, grad)

            # Ratio test: the first zero cell whose slack the step drives to 0.
            # A cell whose row the held rows span keeps its slack as they do.
            dz = A_free @ step
            moving = dz < 0
            if active:
                moving &= _outside(face, A_free)
            reach = np.full(len(free), np.inf)
            reach[moving] = np.maximum(s_free[moving], 0.0) / -dz[moving]
            t_max = float(reach.min(initial=np.inf))
            if ray:
                if not math.isfinite(t_max):
                    raise Infeasible("the dual is unbounded: no table meets the moments")
                t, s_obs, phi = t_max, None, None
            else:
                t, s_obs, phi = self._line_search(w, step, grad, c, phi, min(1.0, t_max),
                                                  it, trace)
            p_obs = None
            w = w + t * step
            if t == t_max:
                for j in free[reach <= t_max * (1.0 + 1e-9)]:
                    if _outside(face, A[[j]])[0]:
                        active = active + [int(j)]
                        face = self._face(active)
        raise AssertionError("unreachable")

    def _line_search(self, w, step, grad, c, phi0, t, it, trace):
        """(t, observed slacks, phi) at the backtracking step length from t
        with every observed slack kept positive, phi0 being phi(w); a first
        trial whose predicted gain is lost in the rounding of phi0 is taken as
        it is, and its phi is None."""
        slope = float(grad @ step)
        if -t * slope < max(1e-9, ROUNDING * (1.0 + abs(phi0))):
            s = self.A_obs @ (w + t * step)
            if np.all(s > 0):
                return t, s, None
        for _ in range(60):
            trial = w + t * step
            s = self.A_obs @ trial
            phi = math.inf if np.any(s <= 0) else float(c @ trial - self.n_obs @ np.log(s))
            if phi <= phi0 + 1e-4 * t * slope:
                return t, s, phi
            t *= 0.5
        raise CertificateError(
            f"dual line search failed at step {it}: no trial step lowers the dual", trace
        )


def _shifted_slack(dual, tilt, psi):
    """Smallest slack of a free zero cell under the dual w - kernel psi."""
    free = dual.zero[np.bincount(tilt.active, minlength=len(dual.A))[dual.zero] == 0]
    return float(np.min(dual.A[free] @ (tilt.w - tilt.kernel @ psi), initial=np.inf))


def _sqp_test(dual, tilt, cur, ll_prev, n, tol_constraint, tol_loglik):
    """The convergence test of a ve/ce fit at ``tilt``, a certified profile
    point whose x has the constraint jet ``cur``, ``ll_prev`` being the log
    likelihood before the last step: (failed criteria, (loglik, constraint
    residual, stationarity, face normals) for the trace, factors).

    The factors are (rows, U, sv, V, tangent, multipliers) of one SVD of the
    rows [J; face normals] per step, cut at RANK_TOL: V spans the rows, the
    tangent directions are its orthogonal complement, and every
    least-squares solve with the rows or their transpose uses U, sv, V.
    """
    cval, J, _ = cur
    g, normals = tilt.lam, tilt.kernel[1:].T
    m = len(cval)
    rows = np.vstack([J, normals])
    U, sv, vt = np.linalg.svd(rows)
    rank = np.count_nonzero(sv > RANK_TOL * sv.max(initial=0.0))
    U, sv, V, tangent = U[:, :rank], sv[:rank], vt[:rank].T, vt[rank:].T
    coef = U @ ((V.T @ g) / sv)
    stationarity = float(np.max(np.abs(g - rows.T @ coef))) / (1.0 + n)
    hmax = float(np.max(np.abs(cval)))
    rel = math.inf if ll_prev is None else abs(tilt.loglik - ll_prev) / (1.0 + abs(tilt.loglik))
    failed = []
    if hmax > tol_constraint:
        failed.append(f"constraint residual {hmax:.3e} > {tol_constraint:.1e}")
    if rel > tol_loglik:
        failed.append(f"log-likelihood change {rel:.3e} > {tol_loglik:.1e}")
    if stationarity > STATIONARITY_TOL:
        failed.append(f"stationarity {stationarity:.3e} > {STATIONARITY_TOL:.1e}")
    if len(normals) and _shifted_slack(dual, tilt, coef[m:]) < -SLACK_TOL * n:
        failed.append("a zero cell's slack is negative under every face multiplier")
    return failed, (tilt.loglik, hmax, stationarity, len(normals)), (rows, U, sv, V, tangent, coef)


def _lagrangian(tilt, mult, Hc, tangent):
    """(B, reduced, definite): the Hessian B = -curvature + mult . Hc of the
    Lagrangian of a ve/ce fit and its reduction Z'BZ onto the tangent
    directions Z where that is definite (its Cholesky succeeds), else the
    profile's own -curvature and its reduction."""
    k, m = len(tilt.lam), len(mult)
    B = -tilt.curvature + (mult @ Hc.reshape(m, -1)).reshape(k, k)
    reduced = tangent.T @ B @ tangent
    try:
        np.linalg.cholesky(reduced)
        return B, reduced, True
    except np.linalg.LinAlgError:
        B = -tilt.curvature
        return B, tangent.T @ B @ tangent, False


def _kkt_fit(counts, dual, model, max_iter, tol_constraint, tol_loglik):
    """ve or ce by Newton's method on the joint KKT system of the profile
    dual and the constraints: (fitted tilt, steps).  Raises
    DegenerateMarginalError where an observed margin is constant, and
    CertificateError, whose trace holds one record (step, largest scaled
    residual, step length, held cells, "kkt") per step and then, where a
    dual solve failed, that solve's records.

    The unknowns are the dual w of ``dual``, ``TiltedDual(counts, F)``, from
    (n, 0), the masses of the held zero cells and the multipliers mu, from
    0.  With p = n_obs / (A_obs w), the moments (1, x) = A_obs' p + A_held'
    mass and lam = w[1:], the residuals are 1'p + 1'mass - 1, lam - J(x)' mu
    and c(x), and each held cell's slack row joins them as an equality.
    Each step solves that square system, whose dual block is the dual
    Hessian H = A_obs' diag(p / s) A_obs.  Where the observed rows do not
    span, lam = J' mu fixes the directions of w that they do not see.

    Faces: a step that would drive a free zero cell's slack to 0 or below
    stops at 0.9 of the way to the first such cell (a ratio test); where
    the next step meets the same cell, it goes to its face and holds it at
    mass 0.  A step is cut where it drives a held mass to 0.  A held cell at
    mass 0 that the step drives below -MASS_TOL is released, one per step,
    where the step without it does not lower its slack; where it does, the
    held cell of least mass whose release keeps every other held mass
    non-negative leaves instead.  A step is halved while it neither lowers
    the largest residual (that of lam divided by 1 + n) nor keeps it within
    tol_constraint, or leaves an observed slack non-positive or a margin
    degenerate; a step to a face need only not raise it.

    It ends once the residual is within tol_constraint and the log
    likelihood changed by at most tol_loglik over the last step.  Its
    certificate is one warm-started dual solve at that x, then the SQP's
    test (``_sqp_test``) and a reduced Lagrangian Hessian definite on the
    tangent space (``_lagrangian``).
    """
    shape, n = counts.shape, counts.n
    A, A_obs, n_obs = dual.A, dual.A_obs, dual.n_obs
    trace: list[tuple] = []

    def point(w, held, mass, mu):
        """(w, slacks, masses, x, jet, mu, residuals, their largest) at
        (w, held masses, mu), with mu = 0 where it is None, or None where an
        observed slack is not positive or a margin is degenerate.  The
        residual of lam counts divided by 1 + n: it grows with n, the
        others do not."""
        s = A_obs @ w
        if not (s > 0).all():
            return None
        p = n_obs / s
        moments = A_obs.T @ p
        if held:
            moments = moments + A[held].T @ mass
        x = moments[1:]
        try:
            jet = _constraint_jet(model, shape, x)
        except DegenerateMarginalError:
            return None
        mu = np.zeros(len(jet[0])) if mu is None else mu
        resid = np.concatenate([[moments[0] - 1.0], w[1:] - jet[1].T @ mu, jet[0]])
        size = max(abs(resid[0]), np.max(np.abs(resid[1:len(w)])) / (1.0 + n),
                   np.max(np.abs(jet[0])))
        return w, s, p, x, jet, mu, resid, float(size)

    def newton(H, w, held, jet, mu, resid):
        """The Newton step (w, mu, held masses) at a point whose dual
        Hessian is H."""
        _, J, Hc = jet
        Mh = (mu @ Hc.reshape(m, -1)).reshape(k1 - 1, k1 - 1)
        K = np.zeros((k1 + m + len(held),) * 2)
        K[0, :k1] = -H[0]  # 1'p falls along H's first row
        K[1:k1, :k1] = Mh @ H[1:]
        K[1:k1, 1:k1] += np.eye(k1 - 1)
        K[1:k1, k1:k1 + m] = -J.T
        K[k1:k1 + m, :k1] = -J @ H[1:]  # x falls along H's other rows
        rhs = -resid
        if held:  # a held mass moves the moments along its cell's row
            G = A[held].T
            K[0, k1 + m:] = G[0]
            K[1:k1, k1 + m:] = -Mh @ G[1:]
            K[k1:k1 + m, k1 + m:] = J @ G[1:]
            K[k1 + m:, :k1] = A[held]
            rhs = np.concatenate([rhs, -(A[held] @ w)])
        try:
            return np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            raise CertificateError(f"singular KKT system at step {it}", trace) from None

    w = np.zeros(A.shape[1])
    w[0] = dual.n
    held, mass = [], np.zeros(0)
    current = point(w, held, mass, None)
    if current is None:  # a constant observed margin
        raise DegenerateMarginalError("a constant observed margin")
    w, s, p, x, jet, mu, resid, size = current
    k1, m = len(w), len(mu)
    face = dual._face(held)
    t, ll_prev, stopped = 0.0, None, None
    for it in range(max_iter + 1):
        trace.append((it, size, t, len(held), "kkt"))
        total = p.sum() + mass.sum() if held else p.sum()
        ll = float(n_obs @ np.log(p / total))
        H = A_obs.T @ ((p / s)[:, None] * A_obs)
        rel = math.inf if ll_prev is None else abs(ll - ll_prev) / (1.0 + abs(ll))
        if size <= tol_constraint and rel <= tol_loglik:
            # the certificate: one dual solve at x, warm-started at (w, s, p, H)
            warm = Tilt(w, held, p, ll, it, None, None, (dual, s, p, H))
            try:
                tilt = dual.solve(x, warm, max_iter=max_iter, tol=INNER_TOL)
            except CertificateError as exc:
                raise CertificateError(str(exc), trace + exc.trace) from exc
            failed, _, (*_, tangent, coef) = _sqp_test(
                dual, tilt, jet, ll_prev, n, tol_constraint, tol_loglik)
            if not _lagrangian(tilt, coef[:m], jet[2], tangent)[2]:
                failed.append("the Lagrangian Hessian is not definite on the tangent space")
            if failed:
                raise CertificateError(
                    f"KKT step {it} fails its certificate: " + "; ".join(failed), trace)
            return tilt, it
        if it == max_iter:
            raise CertificateError(
                f"no convergence within {max_iter} KKT steps: residual {size:.3e}", trace)
        step = newton(H, w, held, jet, mu, resid)
        if held:
            leaving = np.flatnonzero((mass <= MASS_TOL) & (mass + step[k1 + m:] < -MASS_TOL))
            if leaving.size:
                j = int(leaving[np.argmin(step[k1 + m:][leaving])])
                for i in [j] + [i for i in np.argsort(mass) if i != j]:
                    rest, rest_mass = held[:i] + held[i + 1:], np.delete(mass, i)
                    freed = point(w, rest, rest_mass, mu)
                    if freed is None:
                        continue
                    freed_step = newton(H, w, rest, freed[4], mu, freed[6])
                    if (A[held[i]] @ freed_step[:k1] > -SLACK_TOL * n if i == j
                            else (rest_mass + freed_step[k1 + m:]).min() >= -MASS_TOL):
                        break
                else:
                    raise CertificateError(f"no held cell can leave its face at step {it}", trace)
                (w, s, p, x, jet, mu, resid, size), step = freed, freed_step
                held, mass, face = rest, rest_mass, dual._face(rest)
        dw, dmass = step[:k1], step[k1 + m:]
        if held:
            free = dual.zero[np.bincount(held, minlength=len(A))[dual.zero] == 0]
            A_free = A[free]
        else:
            free, A_free = dual.zero, dual.A_zero
        # Ratio tests: the first free zero cell whose slack the step drives
        # to 0 (looked for only where the full step meets a face), and the
        # first held cell whose mass it drives to 0.
        t_max, hold, empty = math.inf, None, None
        if (A_free @ (w + dw) <= 0).any():
            dz = A_free @ dw
            moving = dz < 0
            if held:  # a cell whose row the held rows span keeps its slack as they do
                moving &= _outside(face, A_free)
            reach = np.full(len(free), np.inf)
            reach[moving] = np.maximum(A_free[moving] @ w, 0.0) / -dz[moving]
            j = int(np.argmin(reach))
            t_max, hold = float(reach[j]), int(free[j])
            if hold != stopped:
                t_max *= 0.9
        if held and (mass + dmass).min() < 0:
            falling = dmass < 0
            reach = np.full(len(held), np.inf)
            reach[falling] = np.maximum(mass[falling], 0.0) / -dmass[falling]
            j = int(np.argmin(reach))
            if reach[j] < t_max:
                t_max, hold, empty = float(reach[j]), None, j
        for t in [min(t_max, 1.0) * 0.5 ** h for h in range(30)]:
            trial_held, trial_mass = held, mass + t * dmass
            if t == t_max and hold is not None and hold == stopped:
                trial_held, trial_mass = held + [hold], np.append(trial_mass, 0.0)
            elif t == t_max and empty is not None:
                trial_mass[empty] = 0.0
            trial = point(w + t * dw, trial_held, trial_mass, mu + t * step[k1:k1 + m])
            # at the rounding floor a step need only keep the residual there
            if trial is not None and (trial[-1] < size or trial[-1] <= tol_constraint
                                      or t == t_max and trial[-1] <= size * (1.0 + 1e-9)):
                break
        else:
            raise CertificateError(f"KKT step {it + 1} lowers no residual", trace)
        stopped = hold if t == t_max and trial_held is held else None
        if trial_held is not held:
            face = dual._face(trial_held)
        held, mass = trial_held, trial_mass
        (w, s, p, x, jet, mu, resid, size), ll_prev = trial, ll
    raise AssertionError("unreachable")


def _profile_fit(counts, dual, model, max_iter, tol_constraint, tol_loglik):
    """ve or ce: (fitted tilt, steps) maximizing the profile l*(x) subject to
    c(x) = 0 over the moment coordinates x = F' pi, on ``dual``.

    The SQP step uses l*'s Hessian plus the constraint curvature (only l*'s
    own where the sum is not definite on the tangent space).  Where the
    observed and held rows do not span, l* is smooth only on a face of x,
    and the step keeps to that face (``Tilt.kernel``), while the face's
    multipliers leave every zero-cell slack non-negative.  Otherwise, where
    no point of the face meets the linearized constraints, or where the
    line search would cut the SQP step below 1/16 (its model misjudges a
    face the step crosses), the step is exact instead: to the table of
    largest likelihood on the linearized constraints, one tilted solve with
    G = F J', which finds the next face.  Every step is globalized by an
    exact-penalty line search on l*, each trial one warm-started solve.
    ``steps`` counts SQP steps.  ``fit`` runs it where an observed margin is
    constant, from the smoothed table.
    """
    shape, nvec, n = counts.shape, counts.counts, counts.n
    F = design.moment_basis(shape)

    trace: list[tuple] = []

    def solve(dual, b, start=None, cutoff=-math.inf):
        """A dual solve whose failure carries the SQP's steps, then its own."""
        try:
            return dual.solve(b, start, max_iter=max_iter, tol=INNER_TOL, cutoff=cutoff)
        except CertificateError as exc:
            raise CertificateError(str(exc), trace + exc.trace) from exc

    def profile(x, start=None, cutoff=-math.inf):
        return solve(dual, x, start, cutoff)

    x = F.T @ counts.smoothed_proportions().probs
    cur = _constraint_jet(model, shape, x)
    tilt = profile(x)
    rho, ll_prev = 1.0, None
    for it in range(max_iter + 1):
        failed, record, (rows, U, sv, V, tangent, coef) = _sqp_test(
            dual, tilt, cur, ll_prev, n, tol_constraint, tol_loglik)
        trace.append((it, *record))
        if not failed:
            return tilt, it
        if it == max_iter:
            raise CertificateError(
                f"no convergence within {max_iter} SQP steps: " + "; ".join(failed), trace
            )
        ll_prev = tilt.loglik
        cval, J, Hc = cur
        g, normals = tilt.lam, tilt.kernel[1:].T
        m = len(cval)

        l1 = float(np.sum(np.abs(cval)))

        def sqp_plan():
            """(step, penalty, merit slope, KKT solver) of the SQP step along
            the face, or None where the face cannot meet the linearized
            constraints or its multipliers would make a zero-cell slack
            negative."""
            B, reduced, definite = _lagrangian(tilt, coef[:m], Hc, tangent)

            def kkt(top, bottom):
                """The step p of the KKT system [B rows'; rows 0] (p, mult) =
                (top, bottom) in the null-space form: the least-squares range
                step y of rows y = bottom, then Z'BZ u = Z'(top - B y)."""
                y = V @ ((U.T @ bottom) / sv)
                rhs = tangent.T @ (top - B @ y)
                u = (np.linalg.solve(reduced, rhs) if definite
                     else np.linalg.lstsq(reduced, rhs, rcond=None)[0])
                return y + tangent @ u

            bottom = np.concatenate([-cval, np.zeros(len(normals))])
            p = kkt(g, bottom)
            mult = U @ ((V.T @ (g - B @ p)) / sv)
            resid = max(np.max(np.abs(rows @ p - bottom)),
                        np.max(np.abs(B @ p + rows.T @ mult - g)))
            if resid > 1e-8 * (1.0 + max(np.max(np.abs(g)), np.max(np.abs(bottom)))):
                return None
            if len(normals) and _shifted_slack(dual, tilt, mult[m:]) < -SLACK_TOL * n:
                return None
            quad = float(p @ B @ p)
            penalty = max(2.0 * float(np.max(np.abs(mult[:m]), initial=0.0)) + 1.0, 0.1 * rho)
            if l1 > 0:
                penalty = max(penalty, (float(mult[:m] @ cval) - quad) / l1 + 1.0)
            return p, penalty, min(-quad + float(mult[:m] @ cval) - penalty * l1, 0.0), kkt

        def linearized_plan():
            """(step, penalty, merit slope, dual at the step) to the table of
            largest likelihood on the linearized constraints; a linearization
            that no table meets is followed part way."""
            for tau in 0.5 ** np.arange(30):
                try:
                    lin = solve(TiltedDual(nvec, F @ J.T), J @ x - tau * cval)
                    break
                except Infeasible:
                    continue
            else:
                raise CertificateError(
                    f"no table meets the linearized constraints at step {it}", trace
                )
            # l* is concave and at least lin.loglik at the step's end
            gain = lin.loglik - tilt.loglik
            penalty = max(2.0 * float(np.max(np.abs(lin.lam), initial=0.0)) + 1.0, 0.1 * rho)
            if l1 > 0:
                penalty = max(penalty, -2.0 * gain / (tau * l1))
            end = Tilt(np.r_[lin.w[0], J.T @ lin.lam], lin.active, lin.probs, lin.loglik,
                       0, lin.kernel, lin.curvature)
            return F.T @ lin.probs - x, penalty, min(-gain - tau * penalty * l1, 0.0), end

        def search(p, penalty, slope, end=None, kkt=None, halvings=60):
            """(x, tilt, jet, penalty) of the first step length, from 1 by halving,
            that lowers the exact-penalty merit enough, or None."""
            merit0 = -tilt.loglik + penalty * l1

            def trial_jet(x_new):
                try:
                    return _constraint_jet(model, shape, x_new)
                except DegenerateMarginalError:
                    return None

            def attempt(x_new, t, trial):
                if trial is None:
                    return None
                need = penalty * float(np.sum(np.abs(trial[0]))) - merit0 - 1e-4 * t * slope
                if -slope < max(1e-9, ROUNDING * (1.0 + abs(merit0))):  # lost in rounding
                    need = -math.inf
                try:
                    # at the linearized table, its own dual is the warm start
                    new = profile(x_new, end if end is not None and t == 1.0 else tilt, need)
                except Infeasible:
                    return None
                return (x_new, new, trial, penalty) if new.loglik >= need else None

            t = 1.0
            for halving in range(halvings):
                x_new = x + t * p
                trial = trial_jet(x_new)
                accepted = attempt(x_new, t, trial)
                if accepted is None and halving == 0 and kkt is not None and trial is not None:
                    # second-order correction against the Maratos effect, from
                    # the refused full step's own jet
                    x_soc = x_new + kkt(np.zeros(len(x)),
                                        np.concatenate([-trial[0], np.zeros(len(normals))]))
                    accepted = attempt(x_soc, 1.0, trial_jet(x_soc))
                if accepted is not None:
                    return accepted
                t *= 0.5
            return None

        # The SQP step, unless it must be cut below 1/16: the model then
        # misjudges a face that the step crosses, and the exact step follows.
        plan = sqp_plan()
        accepted = None if plan is None else search(*plan[:3], kkt=plan[3], halvings=5)
        if accepted is None:
            accepted = search(*linearized_plan())
        if accepted is None:
            raise CertificateError(
                f"SQP line search failed at step {it + 1}: no trial step lowers the merit",
                trace,
            )
        x, tilt, cur, rho = accepted
    raise AssertionError("unreachable")


def fit(counts: CountTable, model: str, *, max_iter: int, tol_constraint: float,
        tol_loglik: float) -> tuple[np.ndarray, int]:
    """(fitted probabilities, steps) of a moment family's maximum likelihood."""
    if model in (ME, ME2):
        shape = counts.shape
        F = design.moment_basis(shape)
        A = _constraint_jet(model, shape, np.zeros(F.shape[1]))[1]
        tilt = TiltedDual(counts.counts, F @ A.T).solve(
            np.zeros(len(A)), max_iter=max_iter, tol=tol_constraint, tol_loglik=tol_loglik
        )
        return tilt.probs, tilt.iterations
    if model == VE and counts.shape.r == 2:
        return _two_category_ve(counts, max_iter, tol_constraint, tol_loglik)
    if model == CE and counts.shape.T == 2:  # one correlation, nothing to equate
        return counts.proportions().probs, 0
    dual = TiltedDual(counts.counts, design.moment_basis(counts.shape))
    try:
        tilt, steps = _kkt_fit(counts, dual, model, max_iter, tol_constraint, tol_loglik)
    except DegenerateMarginalError:  # the profile SQP starts at the smoothed table
        tilt, steps = _profile_fit(counts, dual, model, max_iter, tol_constraint, tol_loglik)
    return tilt.probs, steps


def _two_category_ve(counts, max_iter, tol_constraint, tol_loglik):
    """ve with two categories, where a variance (mu - u_1)(u_2 - mu) is a
    function of the mean: adjacent variables have equal variances exactly
    where their means are equal or sum to u_1 + u_2.  The model is the union
    of these 2^(T-1) linear ones, and its fit the best of their fits."""
    shape = counts.shape
    T, (u1, u2) = shape.T, shape.scores
    scores = design.score_matrix(shape)
    best = None
    for flips in itertools.product((False, True), repeat=T - 1):
        A = np.zeros((T - 1, T))
        A[np.arange(T - 1), np.arange(T - 1)] = 1.0
        A[np.arange(T - 1), np.arange(1, T)] = np.where(flips, 1.0, -1.0)
        tilt = TiltedDual(counts.counts, scores @ A.T).solve(
            np.where(flips, u1 + u2, 0.0), max_iter=max_iter, tol=tol_constraint,
            tol_loglik=tol_loglik,
        )
        if best is None or tilt.loglik > best.loglik:
            best = tilt
    return best.probs, best.iterations

