"""Direct minimum-divergence projection onto the moment-matched constraint set.

Given an interior target table, the projection keeps the target's orbit sums,
marginal means, and raw mixed second moments while minimizing the f-divergence
from the symmetrized target.  The minimizer has the closed link form
pi_i = pi_sym_i * F^{-1}(predictor_i + gamma_orbit), so the solve runs in the
low-dimensional predictor space: Newton on the moment residuals, with the
per-orbit normalizers solved and eliminated by the shared link-space engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design
from .divergences import FFunction
from .linkspace import (
    InfeasibleParameterError,
    LinkSpace,
    Orbits,
    inverse_link,
    normalizers,
)
from .tables import Cell, ProbTable, TableShape, cell_index, orbit_structure, symmetric_average


class ProjectionError(RuntimeError):
    """Projection failed to converge; carries iterate diagnostics."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class ProjectionSpec:
    target: ProbTable
    ff: FFunction
    tol: float = 1e-11
    max_iter: int = 500

    def __post_init__(self):
        if not self.target.is_interior:
            raise ValueError("projection target must be strictly positive")


def normalize_gamma(
    shape: TableShape,
    orbit_cells: tuple[Cell, ...],
    alpha: np.ndarray,
    B: np.ndarray,
    ff: FFunction,
) -> float:
    """Per-orbit normalizer gamma with sum_j F^{-1}(pred_j + gamma) = orbit size."""
    alpha = np.asarray(alpha, dtype=float)
    B = np.asarray(B, dtype=float)
    cells = [cell_index(shape, cell) for cell in orbit_cells]
    z = design.cell_predictor(shape, alpha, B)[cells]
    one_orbit = Orbits.of(np.zeros(len(z), dtype=np.intp))
    return float(normalizers(z, one_orbit, ff.link_lam)[0])


def forward_model(base: ProbTable, ff: FFunction, alpha, B) -> ProbTable:
    """Evaluate the model distribution from (alpha, B) over a symmetric base.

    The base supplies the orbit sums; the output's symmetrized table equals the
    base exactly because the normalizers preserve every orbit's mass.
    """
    shape = base.shape
    base_sym = symmetric_average(base)
    if np.max(np.abs(base_sym.probs - base.probs)) > 1e-10:
        raise ValueError("forward model needs a completely symmetric base table")
    z = design.cell_predictor(shape, np.asarray(alpha, float), np.asarray(B, float))
    oid = orbit_structure(shape).orbit_id
    gamma = normalizers(z, Orbits.of(oid), ff.link_lam)
    g, _ = inverse_link(z + gamma[oid], ff.link_lam)
    probs = base.probs * g
    return ProbTable(shape, probs / probs.sum())


def iproject(spec: ProjectionSpec) -> ProbTable:
    """Minimize the divergence from the symmetrized target over the moment set.

    Newton iteration on the moment-difference residuals, with backtracking
    whenever a trial step leaves the F^{-1} domain or fails to reduce the
    residual.
    """
    shape = spec.target.shape
    q = symmetric_average(spec.target).probs
    # For r = 2 the raw difference rows are rank deficient (squared scores are
    # affine in the scores), which would make the Newton system singular.
    M = design.moment_matrix(shape)[design.independent_moment_rows(shape)]
    space = LinkSpace(shape, spec.ff, M.T)  # predictors span the moment rows
    target_mom = M @ spec.target.probs

    trace = []
    pt = space.evaluate(np.zeros(len(M)))
    pi = q * pt.g
    resid = M @ pi - target_mom
    for it in range(spec.max_iter):
        rmax = float(np.max(np.abs(resid), initial=0.0))
        trace.append((it, rmax))
        if rmax < spec.tol:
            return ProbTable(shape, pi / pi.sum())
        # dpi/dtheta = q dg/dy dy/dtheta, normalizers eliminated
        J = M @ ((q * pt.w)[:, None] * space.slopes(pt))
        try:
            step = np.linalg.solve(J, -resid)
        except np.linalg.LinAlgError as exc:
            raise ProjectionError("singular projection Jacobian", trace) from exc

        t = 1.0
        for _ in range(60):
            try:
                pt_new = space.evaluate(pt.theta + t * step, start=pt.gamma)
            except InfeasibleParameterError:
                t *= 0.5
                continue
            pi_new = q * pt_new.g
            resid_new = M @ pi_new - target_mom
            if np.max(np.abs(resid_new), initial=0.0) <= rmax * (1.0 - 0.25 * t) + 1e-15:
                break
            t *= 0.5
        else:
            raise ProjectionError(
                f"positivity or progress could not be maintained at iteration {it}",
                trace,
            )
        pt, pi, resid = pt_new, pi_new, resid_new
    raise ProjectionError(
        f"no convergence in {spec.max_iter} iterations "
        f"(residual {float(np.max(np.abs(resid))):.3e})",
        trace,
    )
