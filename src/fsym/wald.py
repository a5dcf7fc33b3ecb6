"""Wald statistics, analytic link Jacobians, and the symmetry decomposition report.

The three hypotheses are the gs link-form asymmetry constraints (h1, stated
once by ``fitting.linkform_constraint``), the joint second-moment equalities
(h2 = M pi), and their stack (h3), whose Wald statistics add exactly at any
evaluation point where h1 Sigma h2' vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import design
from .chi2 import chi2_sf
from .divergences import FFunction
from .tables import CountTable, ProbTable, TableShape, orbit_structure, orbit_sums, symmetric_average

RIDGE = 1e-10
CONDITION_LIMIT = 1e12


class SingularCovarianceError(np.linalg.LinAlgError):
    """Middle matrix numerically singular even after the ridge."""


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
    out = np.where(struct.same_orbit(), spill[:, None], 0.0)
    out[np.diag_indices_from(out)] += fpp / pi_s
    return out


def orbit_averaging_matrix(shape: TableShape) -> np.ndarray:
    """Projector J onto orbit-constant vectors, J_ij = 1/|D(i)| within orbits."""
    struct = orbit_structure(shape)
    return np.where(struct.same_orbit(), 1.0 / struct.size_of_cell[:, None], 0.0)


def wald_statistic(h: np.ndarray, H: np.ndarray, p: ProbTable, n: float) -> float:
    """n h' (H Sigma H')^{-1} h evaluated at p."""
    value, _ = _wald(h, H, p, n)
    return value


def _wald(h: np.ndarray, H: np.ndarray, p: ProbTable, n: float) -> tuple[float, bool]:
    h = np.atleast_1d(np.asarray(h, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if h.size == 0:
        return 0.0, False
    middle = H @ sigma(p) @ H.T
    ridged = False
    if np.linalg.cond(middle) > CONDITION_LIMIT:
        middle = middle + RIDGE * np.eye(len(h))
        ridged = True
        if np.linalg.cond(middle) > 1 / np.finfo(float).eps:
            raise SingularCovarianceError(
                f"middle matrix singular (condition {np.linalg.cond(middle):.2e})"
            )
    return float(n * h @ np.linalg.solve(middle, h)), ridged


@dataclass
class PartitionRow:
    family: str
    g2: float
    df: int
    pvalue: float


@dataclass
class WaldReport:
    shape: TableShape
    ff: FFunction
    n: float
    w_gs: float
    w_me2: float
    w_s: float
    df_gs: int
    df_me2: int
    df_s: int
    p_gs: float
    p_me2: float
    p_s: float
    additivity_gap: float
    orthogonality_residual: float
    evaluation_point: str  # "observed" or "smoothed"
    ridged: bool
    g2_partition: list[PartitionRow] = field(default_factory=list)
    g2_gap: float = float("nan")


def decompose(counts: CountTable, ff: FFunction, fit_kwargs=None) -> WaldReport:
    """Wald decomposition of complete symmetry plus the likelihood-ratio partition.

    The Wald statistics are plug-in quantities at the observed proportions;
    tables with sampling zeros fall back to additively smoothed proportions
    (flagged in the report) because the link values are unbounded at zero cells.
    """
    from . import fitting  # deferred to avoid an import cycle

    shape = counts.shape
    M = design.moment_matrix(shape)

    p_obs = counts.proportions()
    if p_obs.is_interior:
        p_eval, point = p_obs, "observed"
    else:
        p_eval, point = counts.smoothed_proportions(), "smoothed"

    linkform = fitting.linkform_constraint(shape, design.GS, ff)
    h1 = linkform.fun(p_eval.probs)
    H1 = linkform.jac(p_eval.probs)
    h2 = M @ p_eval.probs
    H2 = M
    h3 = np.concatenate([h1, h2])
    H3 = np.vstack([H1, H2])

    n = counts.n
    w1, r1 = _wald(h1, H1, p_eval, n)
    w2, r2 = _wald(h2, H2, p_eval, n)
    w3, r3 = _wald(h3, H3, p_eval, n)

    sym = symmetric_average(p_obs)
    if not sym.is_interior:
        sym = symmetric_average(counts.smoothed_proportions())
    H1_sym = linkform.jac(sym.probs)
    ortho = float(np.max(np.abs(H1_sym @ sigma(sym) @ M.T)))

    report = WaldReport(
        shape=shape,
        ff=ff,
        n=n,
        w_gs=w1,
        w_me2=w2,
        w_s=w3,
        df_gs=linkform.dim,
        df_me2=M.shape[0],
        df_s=linkform.dim + M.shape[0],
        p_gs=chi2_sf(w1, linkform.dim),
        p_me2=chi2_sf(w2, M.shape[0]),
        p_s=chi2_sf(w3, linkform.dim + M.shape[0]),
        additivity_gap=abs(w3 - w1 - w2),
        orthogonality_residual=ortho,
        evaluation_point=point,
        ridged=r1 or r2 or r3,
    )

    fit_kwargs = fit_kwargs or {}
    partition_specs = [
        fitting.ModelSpec("s"),
        fitting.ModelSpec(design.GS, ff),
        fitting.ModelSpec("me2"),
        fitting.ModelSpec("me"),
        fitting.ModelSpec("ve"),
        fitting.ModelSpec("ce"),
    ]
    fits = {}
    for spec in partition_specs:
        fit = fitting.fit_model(counts, spec, **fit_kwargs)
        fits[spec.family] = fit
        report.g2_partition.append(
            PartitionRow(family=spec.label, g2=fit.g2, df=fit.df, pvalue=fit.pvalue)
        )
    report.g2_gap = abs(
        fits["s"].g2 - fits[design.GS].g2 - fits["me2"].g2
    )
    return report
