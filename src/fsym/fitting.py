"""Maximum-likelihood fitting of the symmetry and asymmetry models.

Complete symmetry has a closed form.  The link families gs/els/ls are fitted
in their own parameters under every power link: pi_i = S_o c_i(theta), where
the orbit masses S_o are the observed orbit proportions and the within-orbit
shares c_i come from the link-space engine (``linkspace``), so only theta is
iterated (``fit_link``).  ``fit_block`` fits one model to a stack of tables
at once: s in closed form, a link family by running ``fit_link``'s interior
climb on every table in lockstep, leaving the tables outside that climb's
case to ``fit_model``.  The block climb starts where ``fit_link`` does
(``_smoothed_start``), evaluates its stack with the one-table normalizers
and point builder of ``linkspace``, and takes only full Newton steps that
pass ``fit_link``'s sufficient decrease test; a table whose step would be
cut is handed over.  Only its row log likelihood and its per-row Cholesky
test (``_definite_steps``) are its own.  The link, block and moment fits
share one iteration cap, MAX_ITER, which they read from this module when
they run.

The moment families me/ve/ce/me2 constrain a few moment coordinates,
c(m) = 0 with m = F' pi (``moments``), and are fitted through the dual of
the tilted multinomial (``tilted``, ``fit_moment``): pi_i = n_i / s_i on the
observed cells, with the slack s_i affine in the cell's row of F, and a
zero-count cell at exactly 0 unless its slack is 0.  me and me2 are linear
and take one convex dual solve in at most k + 1 = T + T(T+1)/2 + 1 unknowns;
ve and ce take Newton steps on the joint KKT system of that dual and their
constraints, and sequential quadratic programming on the profile of the
dual where a face appears.  Every step is O(N k^2); no N x N array is built.

The KKT oracle of these fits lives in ``oracle``; its old names here
(``fit_hlp``, ``symmetry_constraint``, ``linkform_constraint``,
``moment_constraint`` and ``f_jacobian``) load it on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import design, tilted
from .moments import CE, ME, ME2, MOMENT_FAMILIES, VE, constraint_vector as moment_vector
from .chi2 import chi2_sf
from .divergences import FFunction, KL, link
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

SYMMETRY = "s"
FAMILIES = (SYMMETRY,) + design.ASYMMETRY_FAMILIES + MOMENT_FAMILIES

MAX_ITER = 200
TOL_CONSTRAINT = 1e-9
TOL_LOGLIK = 1e-10

# A theta-space link fit stops once its projected score is below
# SCORE_TOL * (1 + n).
SCORE_TOL = 1e-10
# A lam > 1 fit pins a free orbit's lowest zero cell once a step moves it
# toward the edge from a distance u = 1 + lam y below PIN_U.
PIN_U = 1e-3
# A lam > 1 trial point may pin the lowest cell of an orbit whose normalizer
# has no root only while the orbit's free cells then hold at most |o| plus
# this much; further over, the pinned rows cannot be met and the point is
# treated as infeasible.
PIN_EXCESS = 0.5
# A G2 this far below 0 means the fitted mass does not match the total;
# closer, it is roundoff at a perfect fit.
G2_ROUNDOFF = 1e-8
# ``fit_block`` trusts a block's lockstep fits when one of them matches
# ``fit_model``'s G2 to this relative tolerance.
BLOCK_RTOL = 1e-9


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


def _finish(spec, counts, pihat, theta_prime, df, iterations, resid, mhat=None):
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
        converged=True,  # a fit that does not converge raises FitError
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


def _theta_information(space, pt, a, nvec, has_count, orbit_counts, unit_mu, tangent=None):
    """(B, mode): minus the Lagrangian Hessian in theta when it is positive
    definite ("newton"), else the Fisher information ("fisher", or
    "fisher-pinv" when it is singular because the table leaves some theta
    direction unidentified).

    With mu_o the multiplier of orbit o's unit sum, the Hessian is
    -sum_i [lam n_i / u_i^2 + (1 - lam) mu_o g_i / u_i^2] a_i a_i',
    where a_i = dy_i / dtheta.  A free orbit's normalizer makes
    mu_o = R_o / W_o, with R_o = sum_o n_i / u_i and W_o = sum_o dg/dy; a
    pinned orbit's is the multiplier of its unit-sum row, ``unit_mu``, when
    the last step had one.  The information weights are (N_o / |o|) g_i / u_i^2.
    Given a basis ``tangent`` of the directions that keep the edge rows, the
    Hessian need only be definite on those.
    """
    orbits = space.orbits
    hessian, wu = _newton_weights(space, pt, nvec, has_count, unit_mu)
    fisher = (orbit_counts / orbits.size)[orbits.orbit_id] * wu
    for mode, weight in (("newton", hessian), ("fisher", fisher)):
        B = _gram(a, weight)
        if not np.all(np.isfinite(B)):
            continue
        try:
            np.linalg.cholesky(B if tangent is None or mode == "fisher" else tangent.T @ B @ tangent)
        except np.linalg.LinAlgError:
            continue
        return B, mode
    if not np.all(np.isfinite(B)):
        raise np.linalg.LinAlgError("non-finite information matrix")
    return B, "fisher-pinv"


def _newton_weights(space, pt, nvec, has_count, unit_mu=None):
    """(weights, g / u^2) per cell, the weights those of minus the Lagrangian
    Hessian in theta in ``_theta_information``.  A stacked point gives one
    row of each per table."""
    lam, orbits = space.lam, space.orbits
    zero = np.zeros_like(pt.g)
    wu = np.divide(pt.w, pt.u, out=zero.copy(), where=pt.g > 0)
    nu = np.divide(nvec, pt.u, out=zero.copy(), where=has_count)
    nu2 = np.divide(nu, pt.u, out=zero.copy(), where=has_count)
    W = orbits.sum(pt.w)  # 0 in a pinned orbit with no free cell
    mu = np.divide(orbits.sum(nu), W, out=np.zeros_like(W), where=W > 0)
    if unit_mu is not None:
        mu = np.where(np.isnan(unit_mu), mu, unit_mu)
    return lam * nu2 + (1.0 - lam) * np.take(mu, orbits.orbit_id, axis=-1) * wu, wu


def _gram(a, weight, work=None):
    """sum_i weight_i a_i a_i' over the cells, one matrix per leading row;
    ``work`` takes the weighted slopes when given."""
    return np.swapaxes(a, -1, -2) @ np.multiply(weight[..., None], a, out=work)


def _sufficient_decrease(merit, merit0, t, slope, quad):
    """The backtracking test of a step of length t.  A step whose predicted
    gain ``quad`` is below 1e-9 in G2 units is taken in full: the merit
    cannot resolve it from rounding."""
    slack = np.where(np.abs(quad) < 1e-9, np.inf, 1e-13 * (1.0 + np.abs(merit0)))
    return merit <= merit0 + 1e-4 * t * slope + slack


def _constrained_step(B, score, C, r, pinv=False, rows_lsq=False):
    """(d, multipliers) maximizing score'd - d'Bd/2 subject to C d = r.

    With independent rows and a definite B the system is nonsingular and is
    solved exactly, however ill-conditioned.  The rows of held cells can be
    linearly dependent (two cells with one design row, say), so otherwise
    the least-norm solution is used; it splits the multiplier of a repeated
    row evenly.  The right side must then lie in the range of the system;
    with ``rows_lsq`` only the score must, and rows that contradict each
    other are met in least squares.
    """
    d, m = len(score), len(r)
    if not (m or pinv):
        try:
            return np.linalg.solve(B, score), np.zeros(0)
        except np.linalg.LinAlgError:
            pinv = True  # singular to rounding although B passed its Cholesky test
    K = np.block([[B, C.T], [C, np.zeros((m, m))]])
    rhs = np.concatenate([score, r])
    if not pinv and np.linalg.matrix_rank(C) == m:
        sol = np.linalg.solve(K, rhs)
        return sol[:d], -sol[d:]
    sol = np.linalg.lstsq(K, rhs, rcond=1e-12)[0]
    resid = (K @ sol - rhs)[: d if rows_lsq else None]
    if np.max(np.abs(resid)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
        raise np.linalg.LinAlgError("score outside the range of the information")
    return sol[:d], -sol[d:]


def _link_score(space, pt, nvec, has_count, out=None, work=None):
    """(dy/dtheta, score of sum_i n_i log g_i), one of each per row of a
    stacked point; ``out`` and ``work`` as for ``LinkSpace.slopes``."""
    a = space.slopes(pt, out, work)
    nu = np.divide(nvec, pt.u, out=np.zeros_like(pt.u), where=has_count)
    return a, (np.swapaxes(a, -1, -2) @ nu[..., None])[..., 0]


def _share_theta(space, ratio: np.ndarray) -> np.ndarray:
    """The theta whose link values fit F(ratio) best in least squares, one
    per row of within-orbit shares; not finite where a zero share has no
    link value (lam <= 0; F(0) = -1/lam for lam > 0)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return space.theta_of(link(ratio, space.lam))


def _smoothed_start(space, nvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, fitted): ``fit_link``'s first start for each table on the
    last axis of nvec.  ``fitted`` marks the tables whose centered score is
    already within SCORE_TOL * (1 + n); theta = 0, the symmetric fit, is
    their fit.  The others start at the ``_share_theta`` of the smoothed
    table's within-orbit shares."""
    n = nvec.sum(axis=-1)
    p = (nvec + 0.5) / (n + 0.5 * nvec.shape[-1])[..., None]  # CountTable.smoothed_proportions
    ratio = p * space.orbits.size_of_cell / orbit_sums(space.shape, p)
    centered_score = (space.centered.T @ nvec[..., None])[..., 0]
    fitted = np.max(np.abs(centered_score), axis=-1) <= SCORE_TOL * (1.0 + n)
    return np.where(fitted[..., None], 0.0, _share_theta(space, ratio)), fitted


def _link_start(space, theta: np.ndarray) -> LinkPoint | None:
    """The point at theta, if finite and feasible, else for lam > 1 the first
    feasible one of 4 halvings toward 0."""
    if not np.all(np.isfinite(theta)):
        return None
    for k in range(4 * (space.lam > 1.0) + 1):
        try:
            return space.evaluate(theta * 0.5**k)
        except InfeasibleParameterError:
            pass
    return None


def _edge_rows(space, pt, a, active):
    """(C, r, owner, releasable): the edge constraints C d = r of the cells
    ``active`` holds, linearized at ``pt``.

    Held-cell model: one row y_i = -1/lam per held cell, owned by that cell.
    Pinned orbits: one row per orbit for its unit sum over the free cells,
    sum_o g - |o| <= 0 (gradient sum_j w_j (x_j - x_p)), and one row tying
    each other held cell to the pin; the orbit owns them all, and only the
    unit-sum row's multiplier can release it.  ``a`` may be None for r alone.
    """
    if not active.any():
        return None if a is None else a[:0], np.zeros(0), np.zeros(0, np.intp), np.zeros(0, bool)
    edge = -1.0 / space.lam
    if not space.pins:
        cells = np.flatnonzero(active)
        C = None if a is None else a[cells]
        return C, edge - pt.y[cells], cells, np.ones(len(cells), dtype=bool)
    orbits, oid = space.orbits, space.orbits.orbit_id
    orbs = np.flatnonzero(orbits.sum(active) > 0)
    ties = np.flatnonzero(active & (np.arange(len(oid)) != pt.pin[oid]))
    r = np.concatenate([(orbits.sum(pt.g) - orbits.size)[orbs], edge - pt.y[ties]])
    C = None
    if a is not None:
        C = np.concatenate([-orbits.sum_rows(pt.w[:, None] * a)[orbs], a[ties]])
    releasable = np.arange(len(r)) < len(orbs)
    return C, r, np.concatenate([orbs, oid[ties]]), releasable


def _null_space(C):
    """Orthonormal basis of the directions d with C d = 0."""
    _, sv, vt = np.linalg.svd(C)
    return vt[np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0)):].T


def _reach(dy, u, lam):
    """Fraction of a step that carries cells with slope dy from u to the edge."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dy < 0, u / (-lam * dy), np.inf)


def _link_ascent(space, pt, nvec):
    """Climb sum_i n_i log g_i from ``pt``; returns (point, loglik, iterations).

    Damped Newton (Fisher scoring where the Hessian is indefinite) with a
    backtracking line search that stays in the F^{-1} domain.  For a lam > 0
    link, a zero-count cell whose share reaches 0 is held on the domain edge
    as an active constraint (``_edge_rows``; for lam > 1 it pins its orbit),
    and released when its multiplier turns negative.  Converged when the
    projected score is below SCORE_TOL * (1 + n) and every edge row is met
    within TOL_CONSTRAINT; raises FitError after MAX_ITER steps.
    """
    lam, n = space.lam, float(nvec.sum())
    orbit_counts = space.orbits.sum(nvec)
    tol = SCORE_TOL * (1.0 + n)
    has_count = nvec > 0
    holdable = ~has_count & (lam > 0)
    # The cell or orbit that a released row frees.
    owner_of = space.orbits.orbit_id if space.pins else np.arange(len(nvec))
    unit_mu = np.full(len(orbit_counts), np.nan) if space.pins else None
    trace: list[tuple] = []

    def merit_at(q, nu):
        ll_q = _link_loglik(nvec, has_count, q)
        if not q.held.any():
            return ll_q, -ll_q
        return ll_q, -ll_q + nu * float(np.sum(np.abs(_edge_rows(space, q, None, q.held)[1])))

    def plan(pt, it, a, score):
        """The constrained Newton step at pt, after releasing held cells."""
        if not np.all(np.isfinite(score)):
            raise FitError(f"non-finite score at iteration {it}", trace)
        active = pt.held.copy()
        try:
            C, r, owner, releasable = _edge_rows(space, pt, a, active)
            B, mode = _theta_information(
                space, pt, a, nvec, has_count, orbit_counts, unit_mu,
                _null_space(C) if space.pins else None,
            )
            pinv = mode == "fisher-pinv"
            step, mu = _constrained_step(B, score, C, r, pinv, space.pins)
            kkt = float(np.max(np.abs(score + C.T @ mu)))
            resid = float(np.max(np.abs(r), initial=0.0))
            # Release held cells with clearly negative multipliers, one row at
            # a time, while the freed cells then move off the edge; a cell
            # that the other held cells pin to it stays held.
            while True:
                # an orbit whose free cells hold more than |o| has no free normalizer
                want = np.where(releasable & ((r <= 0) | ~space.pins), mu, np.inf)
                if not np.any(want < -1e-6 * (1.0 + n)):
                    break
                k = int(np.argmin(want))
                trial = active & (owner_of != owner[k])
                rows = _edge_rows(space, pt, a, trial)
                freed, freed_mu = _constrained_step(B, score, rows[0], rows[1], pinv, space.pins)
                if C[k] @ freed <= 1e-9 * np.linalg.norm(C[k]) * np.linalg.norm(freed):
                    break
                active, step, mu = trial, freed, freed_mu
                C, r, owner, releasable = rows
        except np.linalg.LinAlgError as exc:
            raise FitError(
                f"singular information matrix at iteration {it}: {exc}", trace
            ) from exc
        return dict(
            a=a, B=B, mode=mode, active=active, r=r, owner=owner,
            releasable=releasable, step=step, mu=mu, kkt=kkt, resid=resid,
        )

    def line_search(pt, p, ll0, r0, it):
        """(point, loglik) of a backtracking search along p's step from pt,
        judged against a point with log likelihood ll0 and edge rows r0."""
        a, B, active, r, mu, step = p["a"], p["B"], p["active"], p["r"], p["mu"], p["step"]
        # Exact-penalty merit; its slope along the step is negative.
        nu = 2.0 * float(np.max(np.abs(mu), initial=0.0)) + 1.0
        merit0 = -ll0 + nu * float(np.sum(np.abs(r0)))
        quad = float(step @ B @ step)
        slope = min(-quad + float(mu @ r) - nu * float(np.sum(np.abs(r))), 0.0)
        # A free zero-count cell that the step would carry over the edge of
        # a pinned orbit (or, for lam <= 1, of any orbit) blocks it there and
        # is held from then on.  A free lam > 1 orbit's normalizer keeps its
        # cells off the edge, and its y is too far from linear to land one.
        t, blockers = 1.0, np.zeros(0, dtype=np.intp)
        free_zero = np.flatnonzero(holdable & ~active)
        if space.pins:
            pinned = np.zeros(len(orbit_counts), dtype=bool) if pt.pin is None else pt.pin >= 0
            free_zero = free_zero[pinned[space.orbits.orbit_id[free_zero]]]
        if free_zero.size:
            reach = _reach(a[free_zero] @ step, pt.u[free_zero], lam)
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
                if space.pins and np.any(new.held & ~hold):
                    grabbed = np.zeros(len(orbit_counts), dtype=bool)
                    grabbed[space.orbits.orbit_id[new.held & ~hold]] = True
                    excess = (space.orbits.sum(new.g) - space.orbits.size)[grabbed]
                    if np.any(excess > PIN_EXCESS):
                        raise InfeasibleParameterError("a pin leaves its orbit far over |o|")
            except InfeasibleParameterError:
                infeasible += 1
                t *= 0.5
                continue
            ll_new, merit = merit_at(new, nu)
            if _sufficient_decrease(merit, merit0, t, slope, quad):
                return new, ll_new
            t *= 0.5
        reason = (
            "an orbit normalizer is infeasible at every trial step"
            if infeasible == 60
            else "no trial step improves the likelihood"
        )
        raise FitError(
            f"line search failed at iteration {it}: {reason}; "
            f"score norm {p['kkt']:.3e}",
            trace,
        )

    ll = _link_loglik(nvec, has_count, pt)
    for it in range(MAX_ITER + 1):
        a, score = _link_score(space, pt, nvec, has_count)
        if not pt.held.any() and np.all(np.abs(score) <= tol):
            trace.append((it, ll, float(np.max(np.abs(score))), 0.0, "stationary"))
            break
        p = plan(pt, it, a, score)
        trace.append((it, ll, p["kkt"], p["resid"], p["mode"]))
        if p["kkt"] <= tol and p["resid"] <= TOL_CONSTRAINT and np.array_equal(p["active"], pt.held):
            break
        if it == MAX_ITER:
            raise FitError(
                f"no convergence within {MAX_ITER} iterations; "
                f"final score norm {p['kkt']:.3e}",
                trace,
            )
        moved = None
        free_zero = np.flatnonzero(holdable & ~p["active"]) if space.pins else ()
        if len(free_zero):
            # Near a lam > 1 edge dg/dy blows up, so the free normalizer holds
            # a zero cell's y in place and a Newton step only shrinks its
            # distance u by a constant factor.  A cell that the step takes
            # more than half way there, or a free orbit's lowest zero cell
            # that the step moves toward the edge from within PIN_U of it,
            # is pinned where it stands instead, and the pinned orbit's step
            # is taken if it improves on the unpinned point.
            dy = p["a"][free_zero] @ p["step"]
            hold = pt.held.copy()
            hold[free_zero[_reach(dy, pt.u[free_zero], lam) < 2.0]] = True
            approach = (dy < 0) & (pt.u[free_zero] < PIN_U)
            if pt.pin is not None:
                approach &= pt.pin[space.orbits.orbit_id[free_zero]] < 0
            near = np.full(len(nvec), np.inf)
            near[free_zero[approach]] = pt.y[free_zero[approach]]
            hold |= np.isfinite(near) & (near == space.orbits.min(near)[space.orbits.orbit_id])
            if np.any(hold & ~pt.held):
                try:
                    alt = space.evaluate(pt.theta, hold, pt.gamma)
                    alt_plan = plan(alt, it, *_link_score(space, alt, nvec, has_count))
                    moved = line_search(alt, alt_plan, ll, p["r"], it)
                    p = alt_plan
                except (InfeasibleParameterError, FitError):
                    moved = None
        if moved is None:
            moved = line_search(pt, p, ll, p["r"], it)
        if unit_mu is not None:
            unit_mu[:] = np.nan
            unit_mu[p["owner"][p["releasable"]]] = p["mu"][p["releasable"]]
        pt, ll = moved

    return pt, ll, it


def fit_link(counts: CountTable, spec: ModelSpec) -> FitResult:
    """Maximum likelihood of a gs/els/ls model in its own parameters theta.

    With pi_i = S_o c_i(theta) the log likelihood separates into
    sum_o N_o log S_o + sum_i n_i log c_i(theta), so the orbit masses S_o are
    the observed orbit proportions and only theta is iterated, to a projected
    score below SCORE_TOL * (1 + n), with every cell held on the F^{-1} edge
    within TOL_CONSTRAINT of it.  Links with 0 <= lam <= 1 make the second
    sum concave.  Steeper links can have several maxima (random sparse
    tables show them at lam = -1.1 and -1.5, never at lam = -1, Hellinger's
    -1/2 or -1/4; and at lam = 1.5, 2 and 3, where the edge's infinite dg/dy
    makes every zero cell on it a corner), so links with |lam| > 1 are
    climbed from several starts, keeping the best: the smoothed table (for
    lam > 1 its theta halved toward 0 until feasible), theta = 0, for
    lam < -1 the KL fit, and for lam > 1 the fit of the table plus t in
    every cell, followed from t = 0.5 down to 0.02.

    theta = 0 lies in every link model and has within-orbit log likelihood
    (``_link_loglik``) exactly 0, so a start whose climb ends below
    -G2_ROUNDOFF / 2 has stopped short (on a flat part of a lam < 0 tail,
    say) and counts as failed.
    """
    shape = counts.shape
    space = link_space(shape, spec.family, spec.ff)
    nvec = counts.counts
    orbit_counts = space.orbits.sum(nvec)

    # theta = 0 is the symmetric fit; a table it already fits takes no step.
    # Otherwise start near the saturated fit, as the constrained fitter does;
    # a link with several maxima also starts from theta = 0 and a nearby fit.
    zero = np.zeros(space.X.shape[1])
    starts = []
    theta, fitted = _smoothed_start(space, nvec)
    if not fitted:
        starts.append(_link_start(space, theta))
        if space.lam < -1.0:
            kl = FFunction(KL)
            kl_space = link_space(shape, spec.family, kl)
            kl_start = _link_start(kl_space, _smoothed_start(kl_space, nvec)[0])
            try:
                if kl_start is None:
                    kl_start = kl_space.evaluate(zero)
                kl_pt = _link_ascent(kl_space, kl_start, nvec)[0]
                starts.append(_link_start(space, _share_theta(space, kl_pt.g)))
            except FitError:
                pass
        if abs(space.lam) > 1.0:
            starts.append(space.evaluate(zero))
        if space.lam > 1.0:
            # The fit of the table plus t in every cell has no cell on the
            # edge; followed as t shrinks, it leads into the basin that the
            # zero cells approach from the inside.
            try:
                pt = space.evaluate(zero)
                for t in (0.5, 0.1, 0.02):
                    pt = _link_ascent(space, pt, nvec + t)[0]
                starts.append(pt)
            except FitError:
                pass
    starts = [pt for pt in starts if pt is not None] or [space.evaluate(zero)]
    best, error = None, None
    for start in starts:
        try:
            result = _link_ascent(space, start, nvec)
            if result[1] < -0.5 * G2_ROUNDOFF:
                raise FitError(
                    f"climb ended below the symmetric fit (theta = 0): within-orbit "
                    f"log likelihood {result[1]:.6g} < -G2_ROUNDOFF / 2"
                )
        except FitError as exc:
            error = error or exc
            continue
        if best is None or result[1] > best[1]:
            best = result
    if best is None:
        raise error
    pt, _, iterations = best

    orbits = space.orbits
    resid = 0.0
    if pt.held.any():
        resid = float(np.max(np.abs(_edge_rows(space, pt, None, pt.held)[1])))
    # a pinned orbit meets its unit sum to within TOL_CONSTRAINT; close it
    g = pt.g
    if pt.pin is not None:
        scale = np.divide(orbits.size, orbits.sum(g), out=np.ones_like(orbits.size), where=pt.pin >= 0)
        g = g * scale[orbits.orbit_id]
    mhat = (orbit_counts / orbits.size)[orbits.orbit_id] * g
    theta_prime = np.concatenate([pt.theta, pt.gamma])
    return _finish(
        spec, counts, ProbTable(shape, mhat / mhat.sum()), theta_prime,
        degrees_of_freedom(spec.family, shape), iterations, resid, mhat=mhat,
    )


def fit_block(shape: TableShape, counts: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """G2 of the s/gs/els/ls model ``spec`` on each row of ``counts``, a stack
    of tables of ``shape``.

    s takes its closed form on every row in ``fit_symmetry``'s arithmetic,
    so each row's G2 is ``fit_model``'s bit for bit.  Under gs/els/ls, the
    tables with every count positive under a link with |lam| <= 1 take
    ``fit_link``'s climb, run on all of them in lockstep (``_link_block``)
    with full Newton steps only.  A NaN marks a table outside that case (a
    zero count, |lam| > 1) or one the lockstep climb hands over (a step that
    would be cut, say); ``fit_model`` must fit it from scratch.
    The first table the climb settles is also fitted by ``fit_model``; if
    the two G2 differ by more than BLOCK_RTOL, every table is handed over.
    Otherwise a row's G2 does not depend on the rows beside it.
    """
    if spec.family not in (SYMMETRY,) + design.ASYMMETRY_FAMILIES:
        raise ValueError(f"fit_block fits s/gs/els/ls, not {spec.family}")
    counts = np.asarray(counts, dtype=float)
    if spec.family == SYMMETRY:
        orbits = orbit_structure(shape)
        mhat = (orbits.sum(counts) / orbits.size)[:, orbits.orbit_id]
        value, nonpositive = _g2_values(counts, mhat)
        return np.where(nonpositive | (value < -G2_ROUNDOFF), np.nan, np.maximum(value, 0.0))
    out = np.full(len(counts), np.nan)
    space = link_space(shape, spec.family, spec.ff)
    rows = np.flatnonzero(np.all(counts > 0, axis=1))
    if abs(space.lam) > 1.0 or not rows.size:
        return out
    nvec = counts[rows]
    g, settled = _link_block(space, nvec)
    orbits = space.orbits
    mhat = (orbits.sum(nvec) / orbits.size)[:, orbits.orbit_id] * g
    value, nonpositive = _g2_values(nvec, mhat)
    settled &= ~nonpositive & (value >= -G2_ROUNDOFF)
    out[rows[settled]] = np.maximum(value[settled], 0.0)
    if settled.any():
        k = rows[np.argmax(settled)]
        try:
            want = fit_model(CountTable(shape, counts[k]), spec).g2
        except FitError:
            want = math.nan
        if not abs(out[k] - want) <= BLOCK_RTOL * (1.0 + want):
            out[:] = np.nan
    return out


def _point_rows(pt: LinkPoint, k) -> LinkPoint:
    """Rows k of a stacked point."""
    return LinkPoint(pt.theta[k], pt.gamma[k], pt.y[k], pt.g[k], pt.u[k], pt.w[k], pt.held[k], None)


def _definite_steps(B, score):
    """(B^-1 score, mask of the rows whose B is finite and passes Cholesky);
    the other rows' steps are void."""
    ok = np.all(np.isfinite(B), axis=(1, 2))
    eye = np.eye(B.shape[1])
    B = np.where(ok[:, None, None], B, eye)
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:  # the stacked test does not say which row failed
        for k in np.flatnonzero(ok):
            try:
                np.linalg.cholesky(B[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        B = np.where(ok[:, None, None], B, eye)
    return np.linalg.solve(B, np.where(ok[:, None], score, 0.0)[..., None])[..., 0], ok


def _link_block(space, nvec):
    """(g, settled): ``_link_ascent``'s interior climb from ``fit_link``'s
    start, in lockstep over the rows of ``nvec``, for a link with
    |lam| <= 1 and every count positive, so that no cell is ever held.

    It takes the same start, score test SCORE_TOL * (1 + n), Newton weights,
    full step, sufficient decrease test at t = 1 and MAX_ITER, and settles
    a row only where ``fit_link`` would accept its climb (log likelihood at
    least -G2_ROUNDOFF / 2).  A row is handed over, never as a partial
    iterate, when its start is infeasible, its Hessian fails Cholesky
    (``_link_ascent`` would switch to Fisher scoring), its score is not
    finite, its full step is infeasible or fails the test (``_link_ascent``
    would cut it), it ends below the symmetric fit or it reaches MAX_ITER.
    Every step acts on each row alone.
    """
    n = nvec.sum(axis=1)
    g_out = np.zeros(nvec.shape)
    settled = np.zeros(len(nvec), dtype=bool)

    pt, feasible = space.evaluate_rows(_smoothed_start(space, nvec)[0])
    row = np.flatnonzero(feasible)  # the tables still climbing
    if not feasible.all():
        pt = _point_rows(pt, row)
    ll = _row_loglik(nvec[row], pt.g)
    # the slopes and the weighted slopes, allocated once for the rows that climb
    slopes, work = np.empty((2, len(row)) + space.X.shape)

    for it in range(MAX_ITER + 1):
        counts, k = nvec[row], len(row)
        a, score = _link_score(space, pt, counts, True, slopes[:k], work[:k])
        stationary = np.all(np.abs(score) <= SCORE_TOL * (1.0 + n[row])[:, None], axis=1)
        done = stationary & (ll >= -0.5 * G2_ROUNDOFF)
        g_out[row[done]] = pt.g[done]
        settled[row[done]] = True
        live = ~stationary & np.all(np.isfinite(score), axis=1) & (it < MAX_ITER)
        if not live.any():
            break
        if not live.all():
            row, pt, ll, counts = row[live], _point_rows(pt, live), ll[live], counts[live]
            a, score = a[live], score[live]

        B = _gram(a, _newton_weights(space, pt, counts, True)[0], work[: len(row)])
        step, ok = _definite_steps(B, score)

        # _link_ascent's test of its full step with no edge rows: nu = 1, slope -quad
        quad = (step[:, None, :] @ B @ step[..., None])[:, 0, 0]
        trial, feasible = space.evaluate_rows(pt.theta + step, pt.gamma)
        ll_trial = _row_loglik(counts, trial.g)
        moved = ok & feasible & _sufficient_decrease(-ll_trial, -ll, 1.0, np.minimum(-quad, 0.0), quad)
        if moved.all():
            pt, ll = trial, ll_trial
        else:
            row, pt, ll = row[moved], _point_rows(trial, moved), ll_trial[moved]
    return g_out, settled


def _row_loglik(nvec, g):
    """``_link_loglik`` of each row, every count positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.sum(nvec * np.log(g), axis=1)
    return np.where(np.all(g > 0, axis=1), ll, -math.inf)


def fit_moment(counts: CountTable, spec: ModelSpec) -> FitResult:
    """Maximum likelihood of a moment family through its tilted-multinomial
    dual (``tilted``): one dual solve for me/me2; for ve/ce, Newton on the
    joint KKT system, or the profile SQP where that hands over."""
    try:
        probs, steps = tilted.fit(
            counts, spec.family, max_iter=MAX_ITER,
            tol_constraint=TOL_CONSTRAINT, tol_loglik=TOL_LOGLIK,
        )
    except tilted.CertificateError as exc:
        raise FitError(str(exc), exc.trace) from exc
    pihat = ProbTable(counts.shape, probs)
    resid = float(np.max(np.abs(moment_vector(spec.family, pihat)), initial=0.0))
    return _finish(
        spec, counts, pihat, None, degrees_of_freedom(spec.family, counts.shape), steps, resid
    )


# --------------------------------------------------------------------------
# Family-level fitting
# --------------------------------------------------------------------------


def fit_symmetry(counts: CountTable) -> FitResult:
    """Closed-form MLE of complete symmetry: orbit averages of the counts."""
    shape = counts.shape
    mhat = orbit_sums(shape, counts.counts) / orbit_structure(shape).size_of_cell
    return _finish(
        ModelSpec(SYMMETRY), counts, ProbTable(shape, mhat / counts.n), None,
        degrees_of_freedom(SYMMETRY, shape), 0, 0.0, mhat=mhat,
    )


def fit_model(counts: CountTable, spec: ModelSpec) -> FitResult:
    """Dispatch a family to its fit: closed form, theta-space link fit for
    gs/els/ls under every f-function, or tilted-dual fit for the moment
    families.

    A fit that reaches MAX_ITER steps (Newton, dual Newton or SQP; the
    ve/ce KKT Newton phase hands over to the SQP instead) raises FitError.  Every fit meets TOL_CONSTRAINT in its constraint residual
    (for me/me2, the dual KKT residual; for a link fit, the distance of held
    cells from the F^{-1} edge); a moment fit also meets TOL_LOGLIK in its
    relative log-likelihood change over its last step, which a link fit
    replaces by its score test (``SCORE_TOL``).
    """
    if spec.family == SYMMETRY:
        return fit_symmetry(counts)
    if spec.family in MOMENT_FAMILIES:
        return fit_moment(counts, spec)
    return fit_link(counts, spec)


def g2(counts: CountTable, mhat: np.ndarray) -> float:
    """Likelihood-ratio statistic 2 sum n log(n / mhat), with 0 log 0 = 0."""
    value, nonpositive = _g2_values(counts.counts, np.asarray(mhat, dtype=float))
    if nonpositive:
        raise InvalidFitError("fitted frequencies must be positive where counts are")
    if value < -G2_ROUNDOFF:
        raise InvalidFitError(
            f"negative statistic {value}: fitted mass does not match the total"
        )
    return max(float(value), 0.0)  # roundoff at a perfect fit


def _g2_values(nvec: np.ndarray, mhat: np.ndarray):
    """(2 sum n log(n / mhat) on the last axis, with 0 log 0 = 0, and whether
    some mhat is not positive where its count is)."""
    pos = nvec > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pos, nvec * np.log(nvec / mhat), 0.0)
    return 2.0 * np.sum(terms, axis=-1), np.any(pos & (mhat <= 0), axis=-1)


def table1_df(family: str, r: int, T: int) -> int:
    """Degrees-of-freedom formulas by family (may be negative for tiny tables)."""
    symmetry = r**T - math.comb(r + T - 1, T)
    if family == SYMMETRY:
        return symmetry
    if family in design.ASYMMETRY_FAMILIES:
        return symmetry - design.family_d2(family, T)
    if family == ME2:  # the gs columns that are not normalizers
        return design.family_d2(design.GS, T)
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
    """Per-cell potential parameters from the fitted predictor z_i.

    exp(z_i) for the KL link (lam = 0), else lam z_i / |o|^lam with |o| the
    size of the cell's orbit.
    """
    alpha, B = linear_coefficients(fit)
    shape = fit.shape
    pred = design.cell_predictor(shape, alpha, B)
    sizes = orbit_structure(shape).size_of_cell
    lam = fit.spec.ff.link_lam
    theta = np.exp(pred) if lam == 0.0 else lam * pred / sizes**lam
    return {cell: float(theta[i]) for i, cell in enumerate(all_cells(shape))}


def discrepancy_measure(fit: FitResult, cell_a: tuple[int, ...], cell_b: tuple[int, ...]) -> float:
    """Fitted conditional-probability comparison between two symmetric cells.

    Ratio c_a / c_b for the KL link (lam = 0), else the power difference
    c_a^lam - c_b^lam: the plain difference for Pearson, the inverse-square-root
    difference for Hellinger.  The benchmark under complete symmetry is 1 for
    the ratio and 0 for the differences.
    """
    if sorted(cell_a) != sorted(cell_b):
        raise ValueError(f"cells {cell_a} and {cell_b} are not in the same orbit")
    ff = fit.spec.ff if fit.spec else None
    if ff is None:
        raise ValueError("no f-function available to pick the measure")
    # only this orbit needs mass: the link fits leave empty orbits at exactly 0
    ia, ib = cell_index(fit.shape, cell_a), cell_index(fit.shape, cell_b)
    probs = fit.pihat.probs
    mass = float(orbit_sums(fit.shape, probs)[ia])
    if mass <= 0:
        raise DegenerateOrbitError(f"orbit of cell {cell_a} has zero fitted probability")
    ca, cb = probs[ia] / mass, probs[ib] / mass
    lam = ff.link_lam
    if lam == 0.0:
        return float(ca / cb)
    return float(ca**lam - cb**lam)


# The KKT oracle's names that code outside the package still reads here.
_ORACLE_NAMES = frozenset(
    ("fit_hlp", "symmetry_constraint", "linkform_constraint", "moment_constraint", "f_jacobian")
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
