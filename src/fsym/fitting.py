"""Maximum-likelihood fitting of the symmetry and asymmetry models.

Complete symmetry has a closed form.  The link families gs/els/ls are fitted
in their own parameters under every power link: pi_i = S_o c_i(theta), where
the orbit masses S_o are the observed orbit proportions and the within-orbit
shares c_i come from the link-space engine (``linkspace``), so only theta is
iterated, by one climb (``_link_ascent``) over a stack of tables, each row
alone: ``fit_link`` climbs one table (from several starts for |lam| > 1),
``fit_block`` a power-study block.  The link and moment fits share one
iteration cap, MAX_ITER, which they read from this module when they run.

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


def _link_loglik(nvec: np.ndarray, has_count: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_i n_i log g_i per row of a stack: the within-orbit log likelihood
    up to a constant, -inf where a cell with a count has g = 0.  Each row's
    is one dot product over its cells with a count, as for that row alone."""
    with np.errstate(divide="ignore"):  # log 0 at held cells
        log_g = np.log(g)
    if np.count_nonzero(has_count) == has_count.size:
        return (nvec[:, None, :] @ log_g[..., None])[:, 0, 0]
    return np.array([n[h] @ log[h] for n, h, log in zip(nvec, has_count, log_g)])


def _theta_information(space, pt, a, nvec, has_count, orbit_counts, unit_mu, tangent=None,
                       work=None):
    """(B, mode) per row of a stacked point: minus the Lagrangian Hessian in
    theta where it is positive definite ("newton"), else the Fisher
    information ("fisher", or "fisher-pinv" when it is singular because the
    table leaves some theta direction unidentified); raises LinAlgError
    where that is not finite.

    With mu_o the multiplier of orbit o's unit sum, the Hessian is
    -sum_i [lam n_i / u_i^2 + (1 - lam) mu_o g_i / u_i^2] a_i a_i',
    where a_i = dy_i / dtheta.  A free orbit's normalizer makes
    mu_o = R_o / W_o, with R_o = sum_o n_i / u_i and W_o = sum_o dg/dy; a
    pinned orbit's is the multiplier of its unit-sum row, ``unit_mu``, when
    the last step had one.  The information weights are (N_o / |o|) g_i / u_i^2.
    Given a basis ``tangent`` of the directions that keep the edge rows of a
    stack of one, the Hessian need only be definite on those.  ``work``
    takes the weighted slopes when given.
    """
    orbits = space.orbits
    hessian, wu = _newton_weights(space, pt, nvec, has_count, unit_mu)
    B = _gram(a, hessian, work)
    mode = np.array(["newton"] * len(B), dtype=object)
    weak = ~_definite(B if tangent is None else tangent.T @ B @ tangent)
    if np.count_nonzero(weak):
        fisher = (orbit_counts / orbits.size)[:, orbits.orbit_id] * wu
        B[weak] = _gram(a[weak], fisher[weak])
        if not np.all(np.isfinite(B[weak])):
            raise np.linalg.LinAlgError("non-finite information matrix")
        mode[weak] = np.where(_definite(B[weak]), "fisher", "fisher-pinv")
    return B, mode


def _definite(M):
    """Which matrices of the stack M are finite and pass their Cholesky test."""
    ok = np.isfinite(M).all(axis=(1, 2))
    if np.count_nonzero(ok) < len(ok):
        M = np.where(ok[:, None, None], M, np.eye(M.shape[-1]))
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:  # the stacked test does not say which failed
        for k in np.flatnonzero(ok):
            try:
                np.linalg.cholesky(M[k])
            except np.linalg.LinAlgError:
                ok[k] = False
    return ok


def _newton_weights(space, pt, nvec, has_count, unit_mu=None):
    """(weights, g / u^2) per cell, the weights those of minus the Lagrangian
    Hessian in theta in ``_theta_information``.  A stacked point gives one
    row of each per table."""
    lam, orbits = space.lam, space.orbits
    zero = np.zeros(pt.g.shape)
    wu = np.divide(pt.w, pt.u, out=zero.copy(), where=pt.g > 0)
    nu = np.divide(nvec, pt.u, out=zero.copy(), where=has_count)
    nu2 = np.divide(nu, pt.u, out=zero.copy(), where=has_count)
    W = orbits.sum(pt.w)  # 0 in a pinned orbit with no free cell
    mu = np.divide(orbits.sum(nu), W, out=np.zeros(W.shape), where=W > 0)
    if unit_mu is not None:
        mu = np.where(np.isnan(unit_mu), mu, unit_mu)
    return lam * nu2 + (1.0 - lam) * mu[..., orbits.orbit_id] * wu, wu


def _gram(a, weight, work=None):
    """sum_i weight_i a_i a_i' over the cells, one matrix per leading row;
    ``work`` takes the weighted slopes when given."""
    return np.swapaxes(a, -1, -2) @ np.multiply(weight[..., None], a, out=work)


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
    nu = np.divide(nvec, pt.u, out=np.zeros(pt.u.shape), where=has_count)
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
    pt, feasible = _evaluate(space, theta * 0.5 ** np.arange(4 * (space.lam > 1.0) + 1)[:, None])
    return pt[np.argmax(feasible)] if feasible.any() else None


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


def _evaluate(space, theta, held=None, start=None, holdable=None):
    """(point, feasible): ``LinkSpace.evaluate`` at each row of theta, the
    rows it cannot evaluate there evaluated at theta = 0 with no cell held,
    and void; ``feasible`` is a row mask, or True where every row is, and
    the point is None where theta = 0 is refused too."""
    feasible = np.True_
    while True:
        try:
            return space.evaluate(theta, held, start, holdable), feasible
        except InfeasibleParameterError as exc:
            if not feasible.any():
                return None, feasible
            bad = np.full(len(theta), True) if exc.orbits is None else exc.orbits.any(axis=-1)
            feasible = feasible & ~bad
            theta = np.where(feasible[:, None], theta, 0.0)
            held = None if held is None else held & feasible[:, None]


def _link_ascent(space, pt, nvec):
    """Climb sum_i n_i log g_i from each row of the stacked point ``pt`` for
    the table in the same row of ``nvec``; returns (point, loglik,
    iterations, errors) per table, errors[k] being None or the FitError that
    stopped table k, whose point is then void.

    Damped Newton (Fisher scoring where the Hessian is indefinite) with a
    backtracking line search that stays in the F^{-1} domain.  For a lam > 0
    link, a zero-count cell whose share reaches 0 is held on the domain edge
    as an active constraint (``_edge_rows``; for lam > 1 it pins its orbit),
    and released when its multiplier turns negative.  A table has converged
    when its projected score is below SCORE_TOL * (1 + n) and every edge row
    is met within TOL_CONSTRAINT; it fails after MAX_ITER steps.  The tables
    climb in lockstep, each in the arithmetic of a stack of one, with its
    own held cells, step mode, step length, iterations and trace: those
    without held cells step by one stacked solve, the others plan alone.
    """
    lam, orbits, d = space.lam, space.orbits, space.X.shape[1]
    n = nvec.sum(axis=1)
    tol = SCORE_TOL * (1.0 + n)
    orbit_counts = orbits.sum(nvec)
    has_count = nvec > 0
    holdable = ~has_count & (lam > 0)
    # The cell or orbit that a released row frees.
    owner_of = orbits.orbit_id if space.pins else np.arange(nvec.shape[1])
    unit_mu = np.full(orbit_counts.shape, np.nan) if space.pins else None
    ll = _link_loglik(nvec, has_count, pt.g)
    out, iterations, errors = pt[np.arange(len(nvec))], np.zeros(len(nvec), int), [None] * len(nvec)
    history = []  # per step: (step, tables, loglik, score norm, edge residual, mode)
    live = np.arange(len(nvec))  # the tables still climbing
    # the slopes and the weighted slopes, allocated once for the tables
    slopes, work = np.empty((2, len(nvec)) + space.X.shape)

    def fail(k, message):
        trace = [(it, float(l[i]), float(s[i]), float(e[i]), m[i])
                 for it, rows, l, s, e, m in history for i in np.flatnonzero(rows == k)]
        errors[k] = FitError(message, trace)

    def plan(pk, ak, sk, k, it, information=None):
        """The constrained Newton step of table k at the point pk, with slopes
        ak and score sk, after releasing held cells; ``information`` is its
        (B, mode) where the stacked ``_theta_information`` has it."""
        if not np.all(np.isfinite(sk)):
            raise FitError(f"non-finite score at iteration {it}")
        active = pk.held.copy()
        try:
            C, r, owner, releasable = _edge_rows(space, pk, ak, active)
            if information is None:
                B, mode = _theta_information(
                    space, pk[None], ak[None], nvec[k : k + 1], has_count[k : k + 1],
                    orbit_counts[k : k + 1],
                    None if unit_mu is None else unit_mu[k : k + 1],
                    _null_space(C) if space.pins else None,
                )
                information = B[0], mode[0]
            B, mode = information
            pinv = mode == "fisher-pinv"
            step, mu = _constrained_step(B, sk, C, r, pinv, space.pins)
            kkt = float(np.max(np.abs(sk + C.T @ mu)))
            resid = float(np.max(np.abs(r), initial=0.0))
            # Release held cells with clearly negative multipliers, one row at
            # a time, while the freed cells then move off the edge; a cell
            # that the other held cells pin to it stays held.
            while True:
                # an orbit whose free cells hold more than |o| has no free normalizer
                want = np.where(releasable & ((r <= 0) | ~space.pins), mu, np.inf)
                if not np.any(want < -1e-6 * (1.0 + n[k])):
                    break
                i = int(np.argmin(want))
                trial = active & (owner_of != owner[i])
                rows = _edge_rows(space, pk, ak, trial)
                freed, freed_mu = _constrained_step(B, sk, rows[0], rows[1], pinv, space.pins)
                if C[i] @ freed <= 1e-9 * np.linalg.norm(C[i]) * np.linalg.norm(freed):
                    break
                active, step, mu = trial, freed, freed_mu
                C, r, owner, releasable = rows
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular information matrix at iteration {it}: {exc}") from exc
        return dict(
            B=B, mode=mode, active=active, owner=owner, releasable=releasable, step=step, mu=mu,
            kkt=kkt, resid=resid, nu=2.0 * float(np.max(np.abs(mu), initial=0.0)) + 1.0,
            mur=float(mu @ r), pen=float(np.sum(np.abs(r))),
        )

    def search(q, a, k, p, pen0, it):
        """(point, loglik, failed) of a backtracking search along each row's
        step from the stacked point q of tables k, by its terms p, against
        edge residuals pen0; ``failed`` maps a row that found no step to the
        reason.  Each trial evaluates every row, one that has moved again."""
        step, active, nu = p["step"], p["active"], p["nu"]
        hold_ok = p["holdable"] if lam > 0 else None
        # Exact-penalty merit; its slope along the step is negative.
        merit0 = -ll[k] + nu * pen0
        quad = (step[:, None, :] @ p["B"] @ step[..., None])[:, 0, 0]
        slope = np.minimum(-quad + p["mur"] - nu * p["pen"], 0.0)
        # A step whose predicted gain quad is below 1e-9 in G2 units is taken
        # in full: the merit cannot resolve it from rounding.
        slack = np.where(np.abs(quad) < 1e-9, np.inf, 1e-13 * (1.0 + np.abs(merit0)))
        # A free zero-count cell that the step would carry over the edge of
        # a pinned orbit (or, for lam <= 1, of any orbit) blocks it there and
        # is held from then on.  A free lam > 1 orbit's normalizer keeps its
        # cells off the edge, and its y is too far from linear to land one.
        t, hold, blocking = np.full(len(k), 1.0), active, None
        if hold_ok is not None:
            free_zero = hold_ok & ~active & ((q.pin >= 0)[:, orbits.orbit_id] if space.pins else True)
            for i in np.flatnonzero(free_zero.any(axis=1)):
                cells = np.flatnonzero(free_zero[i])
                reach = _reach(a[i, cells] @ step[i], q.u[i, cells], lam)
                if reach.min() < 1.0:
                    t[i] = reach.min()
                    blocking = np.zeros(active.shape, dtype=bool) if blocking is None else blocking
                    blocking[i, cells[reach <= t[i] * (1.0 + 1e-9)]] = True
        t_block, infeasible, moved = t.copy(), np.zeros(len(k), int), np.zeros(len(k), bool)
        trial, ll_trial = q, ll[k]
        for _ in range(60):
            if blocking is not None:
                hold = active | blocking & (t == t_block)[:, None]
            found, ok = _evaluate(space, q.theta + t[:, None] * step, hold, q.gamma, hold_ok)
            if found is not None:
                trial = found
                if space.pins:  # a pin that leaves its orbit far over |o| is infeasible
                    grabbed = orbits.sum(trial.held & ~hold) > 0
                    ok &= ~np.any(grabbed & (orbits.sum(trial.g) - orbits.size > PIN_EXCESS), axis=1)
                ll_trial = _link_loglik(p["counts"], p["counted"], trial.g)
                merit = -ll_trial
                for i in np.flatnonzero(ok & ~moved & trial.held.any(axis=1)) if np.count_nonzero(trial.held) else ():
                    r = _edge_rows(space, trial[i], None, trial.held[i])[1]
                    merit[i] += nu[i] * float(np.sum(np.abs(r)))
                moved |= ok & (merit <= merit0 + 1e-4 * t * slope + slack)
                if np.count_nonzero(moved) == len(moved):
                    return trial, ll_trial, {}
            infeasible += ~ok
            t[~moved] *= 0.5
        return trial, ll_trial, {
            i: "an orbit normalizer is infeasible at every trial step" if infeasible[i] == 60
            else "no trial step improves the likelihood" for i in np.flatnonzero(~moved)}

    m = 0
    for it in range(MAX_ITER + 1):
        if m != len(live):  # the tables climbing changed
            m, counts, counted = len(live), nvec[live], has_count[live]
            by_table = dict(counts=counts, counted=counted, holdable=holdable[live], tol=tol[live])
        a, score = _link_score(space, pt, counts, counted, slopes[:m], work[:m])
        kkt = np.abs(score).max(axis=1)
        free = ~pt.held.any(axis=1)
        ended = free & (kkt <= by_table["tol"])
        climbing, mode, resid = ~ended, np.array(["stationary"] * m, dtype=object), np.zeros(m)
        # a table without held cells has no edge rows: no penalty
        terms = dict(step=np.zeros(score.shape), B=np.zeros((m, d, d)), active=pt.held.copy(),
                     nu=np.full(m, 1.0), mur=np.zeros(m), pen=np.zeros(m))
        plain, info = climbing & free & np.isfinite(kkt), None
        if np.count_nonzero(climbing):
            try:
                terms["B"], info = _theta_information(
                    space, pt, a, counts, counted, orbit_counts[live],
                    None if unit_mu is None else unit_mu[live], None, work[:m],
                )
                plain &= info != "fisher-pinv"
                n_plain = np.count_nonzero(plain)
                at = slice(None) if n_plain == m else plain  # a slice takes views
                if n_plain:
                    terms["step"][at] = np.linalg.solve(terms["B"][at], score[at, :, None])[..., 0]
                    mode[at] = info[at]
            except np.linalg.LinAlgError:  # singular, or not finite: each table alone
                plain[:], info = False, None
        plans = {}
        for j in np.flatnonzero(climbing & ~plain):
            # a held cell of a pinned orbit needs definiteness on its tangent only
            given = None if info is None or space.pins and not free[j] else (terms["B"][j], info[j])
            try:
                plans[j] = p = plan(pt[j], a[j], score[j], live[j], it, given)
            except FitError as exc:
                fail(live[j], str(exc))
                climbing[j] = False
                continue
            ended[j] = (p["kkt"] <= by_table["tol"][j] and p["resid"] <= TOL_CONSTRAINT
                        and np.array_equal(p["active"], pt.held[j]))
            kkt[j], resid[j], mode[j] = p["kkt"], p["resid"], p["mode"]
            for key, v in terms.items():
                v[j] = p[key]
        # a table that failed above has no record of this step, nor any later
        history.append((it, live, ll[live], kkt, resid, mode))
        if np.count_nonzero(ended):
            out[live[ended]], iterations[live[ended]] = pt[ended], it
        climbing &= ~ended
        if it == MAX_ITER or not np.count_nonzero(climbing):
            for j in np.flatnonzero(climbing):
                fail(live[j], f"no convergence within {MAX_ITER} iterations; "
                              f"final score norm {kkt[j]:.3e}")
            break

        pinned = {}
        for j in np.flatnonzero(climbing) if space.pins else ():
            # Near a lam > 1 edge dg/dy blows up, so the free normalizer holds
            # a zero cell's y in place and a Newton step only shrinks its
            # distance u by a constant factor.  A cell that the step takes
            # more than half way there, or a free orbit's lowest zero cell
            # that the step moves toward the edge from within PIN_U of it,
            # is pinned where it stands instead, and the pinned orbit's step
            # is taken if it improves on the unpinned point.
            free_zero = np.flatnonzero(by_table["holdable"][j] & ~terms["active"][j])
            pj = pt[j]
            dy = a[j, free_zero] @ terms["step"][j]
            hold = pj.held.copy()
            hold[free_zero[_reach(dy, pj.u[free_zero], lam) < 2.0]] = True
            approach = (dy < 0) & (pj.u[free_zero] < PIN_U) & (pj.pin[orbits.orbit_id[free_zero]] < 0)
            near = np.full(len(hold), np.inf)
            near[free_zero[approach]] = pj.y[free_zero[approach]]
            hold |= np.isfinite(near) & (near == orbits.min(near)[orbits.orbit_id])
            if not np.any(hold & ~pj.held):
                continue
            try:
                q = space.evaluate(pj.theta[None], hold[None], pj.gamma[None])
                qa, qs = _link_score(space, q, counts[j : j + 1], counted[j : j + 1])
                qp = plan(q[0], qa[0], qs[0], live[j], it)
            except (InfeasibleParameterError, FitError):
                continue
            found = search(q, qa, live[j : j + 1], {key: np.array([qp[key]]) for key in terms}
                           | {key: v[j : j + 1] for key, v in by_table.items()}, terms["pen"][j], it)
            if not found[2]:
                pinned[j] = found[0], found[1], qp

        climbing[list(pinned)] = False
        at = slice(None) if np.count_nonzero(climbing) == m else climbing  # a slice takes views
        k = live[at]
        new, ll_new, failed = search(pt[at], a[at], k, {
            key: v[at] for key, v in (terms | by_table).items()}, terms["pen"][at], it)
        for i, reason in failed.items():
            fail(k[i], f"line search failed at iteration {it}: {reason}; "
                       f"score norm {kkt[at][i]:.3e}")
        if unit_mu is not None:  # the pinned orbits' multipliers of the step taken
            unit_mu[live] = np.nan
            for j, p in (plans | {j: found[2] for j, found in pinned.items()}).items():
                unit_mu[live[j], p["owner"][p["releasable"]]] = p["mu"][p["releasable"]]
        if failed or pinned:  # the climbing tables change
            m, moved = 0, np.ones(len(k), dtype=bool)
            moved[list(failed)] = False
            k, new, ll_new = (
                np.concatenate([k[moved], live[list(pinned)]]),
                LinkPoint.concatenate([new[moved]] + [found[0] for found in pinned.values()]),
                np.concatenate([ll_new[moved]] + [found[1] for found in pinned.values()]))
        live, pt = k, new
        ll[live] = ll_new

    return out, ll, iterations, errors


def _climb(space, pt, nvec) -> LinkPoint | None:
    """The end of one table's climb from the point pt, or None where it fails."""
    end, _, _, errors = _link_ascent(space, pt[None], nvec[None])
    return None if errors[0] else end[0]


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
    climbed from several starts, as the rows of one stack, keeping the best:
    the smoothed table (for lam > 1 its theta halved toward 0 until
    feasible), theta = 0, for lam < -1 the KL fit, and for lam > 1 the fit
    of the table plus t in every cell, followed from t = 0.5 down to 0.02.

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
            kl_space = link_space(shape, spec.family, FFunction(KL))
            kl_pt = _link_start(kl_space, _smoothed_start(kl_space, nvec)[0])
            kl_pt = _climb(kl_space, kl_space.evaluate(zero) if kl_pt is None else kl_pt, nvec)
            if kl_pt is not None:
                starts.append(_link_start(space, _share_theta(space, kl_pt.g)))
        if abs(space.lam) > 1.0:
            starts.append(space.evaluate(zero))
        if space.lam > 1.0:
            # The fit of the table plus t in every cell has no cell on the
            # edge; followed as t shrinks, it leads into the basin that the
            # zero cells approach from the inside.
            pt = space.evaluate(zero)
            for t in (0.5, 0.1, 0.02):
                pt = None if pt is None else _climb(space, pt, nvec + t)
            starts.append(pt)
    starts = [pt for pt in starts if pt is not None] or [space.evaluate(zero)]
    ends, ll, steps, errors = _link_ascent(
        space, LinkPoint.concatenate([pt[None] for pt in starts]) if len(starts) > 1
        else starts[0][None], np.tile(nvec, (len(starts), 1)))
    for k, error in enumerate(errors):
        if error is None and ll[k] < -0.5 * G2_ROUNDOFF:
            errors[k] = FitError(f"climb ended below the symmetric fit (theta = 0): within-orbit "
                                 f"log likelihood {ll[k]:.6g} < -G2_ROUNDOFF / 2")
    fits = [k for k, error in enumerate(errors) if error is None]
    if not fits:
        raise errors[0]
    best = max(fits, key=lambda k: ll[k])
    pt, iterations = ends[best], int(steps[best])

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
    of tables of ``shape``, each ``fit_model``'s bit for bit.

    s takes its closed form in ``fit_symmetry``'s arithmetic; gs/els/ls with
    |lam| <= 1 take ``fit_link``'s start and climb, run on the whole stack.
    A NaN marks a table for ``fit_model`` to fit: every table under |lam| > 1,
    whose several starts stay per table, and a table whose climb fails, for
    which ``fit_model`` raises the FitError.  The first settled table is
    also fitted by ``fit_model``; if the two G2 differ by more than
    BLOCK_RTOL, every table is handed over.
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
    if abs(space.lam) > 1.0 or not len(counts):
        return out
    # fit_link's start, theta = 0 where that is not finite or not feasible
    theta = _smoothed_start(space, counts)[0]
    theta[~np.all(np.isfinite(theta), axis=1)] = 0.0
    ends, ll, _, errors = _link_ascent(space, _evaluate(space, theta)[0], counts)
    orbits = space.orbits
    mhat = (orbits.sum(counts) / orbits.size)[:, orbits.orbit_id] * ends.g
    value, nonpositive = _g2_values(counts, mhat)
    settled = np.array([error is None for error in errors]) & (ll >= -0.5 * G2_ROUNDOFF)
    # a table without counts is left to fit_model, which refuses it
    settled &= ~nonpositive & (value >= -G2_ROUNDOFF) & (counts.sum(axis=1) > 0)
    out[settled] = np.maximum(value[settled], 0.0)
    if settled.any():
        k = np.argmax(settled)
        try:
            want = fit_model(CountTable(shape, counts[k]), spec).g2
        except FitError:
            want = math.nan
        if not abs(out[k] - want) <= BLOCK_RTOL * (1.0 + want):
            out[:] = np.nan
    return out


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
