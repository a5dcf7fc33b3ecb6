"""Wald statistics of the symmetry decomposition.

The decomposition tests three hypotheses at a table pi: the gs link-form
asymmetry h1 = U'g, with g = F(pi / pi_bar) and U a basis of the complement
of the gs design X; the joint second-moment equalities h2 = M pi; and their
stack (h3), whose Wald statistics add exactly at any evaluation point where
h1 Sigma h2' vanishes.

``decompose`` needs neither U nor any N x N array.  With J = dg/dpi and
D = diag(pi), J pi = 0, so H1 Sigma H1' = U'VU with V = J D J'; J is block
diagonal by orbit, J_o = diag(e) - a 1', so V_o = diag(e^2 pi) - P_o a a'
with P_o the orbit's mass, and V_o's null vector is 1/e.  The orbit
indicators Z are columns of X, so U = B W with B the within-orbit contrasts
(B'Z = 0) and W a basis of the complement of B'M'.  Per orbit,
K_o = B (B'V_o B)^{-1} B' maps y to the x with 1'x = 0 and V_o x - y in the
span of 1, which gives K_o = F_o'F_o in closed form:

    F_o y = (y - mu_o(y)) / (e sqrt(pi)),  mu_o(y) = sum(y / e) / sum(1 / e).

Hence U (U'VU)^{-1} U' = F'(I - Pi) F, with Pi the orthogonal projector onto
the columns of F M'.  With the whitened g^ = (I - Pi) F g and
C^ = (I - Pi) F C for C = J D M' (so that H1 Sigma H2' = U'C):

* W_gs = n ||g^||^2, with N - (columns of X) degrees of freedom;
* W_me2 = n h2'(M Sigma M')^{-1} h2, with M Sigma M' = (M D) M' - h2 h2';
* W_s = W_gs + n r'S^{-1}r, with S = M Sigma M' - C^'C^ and r = h2 - C^'g^.

F costs one orbit sum per column, and C needs no more than that, so the
whitening takes time and memory linear in N; so does Pi, from the Householder
QR of the N x len(M) matrix F M' (``decomposition_statistics``).  Projecting
the whitened rows, rather than taking a Schur complement of their Gram matrix
or solving with X'V^{-1}X, keeps the statistics accurate where V is badly
conditioned, as it is for power links far from lambda = 0 on sparse tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import design, fitting
from .chi2 import chi2_sf
from .divergences import FFunction
from .tables import (
    CountTable,
    ProbTable,
    TableShape,
    orbit_structure,
    orbit_sums,
    symmetric_average,
)

RIDGE = 1e-10
CONDITION_LIMIT = 1e12


class SingularCovarianceError(np.linalg.LinAlgError):
    """Middle matrix numerically singular even after the ridge."""


def _solve(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, bool]:
    """(A^{-1} B, ridged): A gains RIDGE on its diagonal when its condition
    number exceeds CONDITION_LIMIT."""
    if np.linalg.cond(A) <= CONDITION_LIMIT:
        return np.linalg.solve(A, B), False
    A = A + RIDGE * np.eye(len(A))
    if np.linalg.cond(A) > 1 / np.finfo(float).eps:
        raise SingularCovarianceError(
            f"middle matrix singular (condition {np.linalg.cond(A):.2e})"
        )
    return np.linalg.solve(A, B), True


def _link_jacobian(p: ProbTable, ff: FFunction) -> tuple[np.ndarray, np.ndarray]:
    """(g, e): the link values g = F(pi / pi_bar) and the diagonal e of the
    orbit blocks J_o = diag(e) - a 1' of their Jacobian, a = pi e / P_o."""
    pi = p.probs
    pi_bar = orbit_sums(p.shape, pi) / orbit_structure(p.shape).size_of_cell
    return np.asarray(ff.F(pi / pi_bar)), np.asarray(ff.f_second(pi / pi_bar)) / pi_bar


def _moment_deviations(p: ProbTable) -> np.ndarray:
    """M' less its pi-weighted orbit mean, cell by cell (N x d2).  The
    cross-covariance C = J D M' of the link values and M pi is e pi times it;
    it has mu_o(C) = 0, so F C = sqrt(pi) times it."""
    orbits = orbit_structure(p.shape)
    MT = design.moment_matrix(p.shape).T
    mean = orbits.sum_rows(p.probs[:, None] * MT) / orbits.sum(p.probs)[:, None]
    return MT - mean[orbits.orbit_id]


def decomposition_statistics(
    p: ProbTable, ff: FFunction, n: float
) -> tuple[float, float, float, bool]:
    """(W_gs, W_me2, W_s, ridged) at an interior table p, by the closed-form
    whitening of the module docstring; ``ridged`` when M Sigma M' or S took
    the ridge.  I - Pi = Q2 Q2' for the last columns Q2 of one Householder QR
    of F M', so [g^ | C^]'[g^ | C^] is the Gram matrix of Q2'[F g | F C]."""
    design.design_matrix(p.shape, design.GS)  # refuses a rank-deficient design
    M = design.moment_matrix(p.shape)
    orbits = orbit_structure(p.shape)
    g, e = _link_jacobian(p, ff)
    w, root = 1.0 / e, np.sqrt(p.probs)
    Y = np.column_stack([g, M.T])
    Y -= (orbits.sum_rows(w[:, None] * Y) / orbits.sum(w)[:, None])[orbits.orbit_id]
    Y *= (w / root)[:, None]  # [F g | F M']
    H, T = design.householder(Y[:, 1:])
    A = np.column_stack([Y[:, 0], root[:, None] * _moment_deviations(p)])  # [F g | F C]
    G = A[len(M) :] - H[:, len(M) :].T @ (T.T @ (H @ A))  # Q2'A
    GG = G.T @ G
    h2 = M @ p.probs
    M_sigma = (M * p.probs) @ M.T - np.outer(h2, h2)
    x_me2, ridged_m = _solve(M_sigma, h2)
    r = h2 - GG[1:, 0]
    x_s, ridged_s = _solve(M_sigma - GG[1:, 1:], r)
    w_gs = float(n * GG[0, 0])
    return w_gs, float(n * h2 @ x_me2), w_gs + float(n * r @ x_s), ridged_m or ridged_s


def orthogonality_residual(sym: ProbTable, ff: FFunction) -> float:
    """max_j ||(I - P_X) c_j||_2 over the columns of C = J D M' at sym, with
    P_X = orbit averaging + Q Q' the projector onto the gs design (X2 = QR is
    orthogonal to the orbits): zero exactly where h1 Sigma h2' = U'C vanishes,
    and never below max |U'C| for an orthonormal U."""
    Q = design.design_matrix(sym.shape, design.GS).Q
    _, e = _link_jacobian(sym, ff)
    C = orbit_structure(sym.shape).center_rows((e * sym.probs)[:, None] * _moment_deviations(sym))
    resid = C - Q @ (Q.T @ C)
    return float(np.max(np.linalg.norm(resid, axis=0)))


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


def decompose(counts: CountTable, ff: FFunction) -> WaldReport:
    """Wald decomposition of complete symmetry plus the likelihood-ratio partition.

    The Wald statistics are plug-in quantities at the observed proportions;
    tables with sampling zeros fall back to additively smoothed proportions
    (flagged in the report) because the link values are unbounded at zero cells.
    Each partition fit is ``fitting.fit_model``, and the Wald degrees of
    freedom are those of the gs and me2 fits (``fitting.degrees_of_freedom``).
    """
    shape = counts.shape
    p_obs = counts.proportions()
    p_eval = p_obs if p_obs.is_interior else counts.smoothed_proportions()
    w1, w2, w3, ridged = decomposition_statistics(p_eval, ff, counts.n)

    sym = symmetric_average(p_obs)
    if not sym.is_interior:
        sym = symmetric_average(counts.smoothed_proportions())

    df_gs = fitting.degrees_of_freedom(design.GS, shape)
    df_me2 = fitting.degrees_of_freedom("me2", shape)
    report = WaldReport(
        shape=shape,
        ff=ff,
        n=counts.n,
        w_gs=w1,
        w_me2=w2,
        w_s=w3,
        df_gs=df_gs,
        df_me2=df_me2,
        df_s=df_gs + df_me2,
        p_gs=chi2_sf(w1, df_gs),
        p_me2=chi2_sf(w2, df_me2),
        p_s=chi2_sf(w3, df_gs + df_me2),
        additivity_gap=abs(w3 - w1 - w2),
        orthogonality_residual=orthogonality_residual(sym, ff),
        evaluation_point="observed" if p_eval is p_obs else "smoothed",
        ridged=ridged,
    )

    fits = {
        family: fitting.fit_model(counts, fitting.ModelSpec(family, ff if family == design.GS else None))
        for family in ("s", design.GS, "me2", "me", "ve", "ce")
    }
    report.g2_partition = [
        PartitionRow(family=fit.spec.label, g2=fit.g2, df=fit.df, pvalue=fit.pvalue) for fit in fits.values()
    ]
    report.g2_gap = abs(fits["s"].g2 - fits[design.GS].g2 - fits["me2"].g2)
    return report


# The dense forms' names that code outside the package still reads here.
_ORACLE_NAMES = frozenset(("sigma", "f_jacobian", "orbit_averaging_matrix", "wald_statistic"))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
