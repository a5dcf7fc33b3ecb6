"""Wald statistics of the symmetry decomposition.

The decomposition tests three hypotheses at a table pi: the gs link-form
asymmetry h1 = U'g, with g = F(pi / pi_bar) and U a basis of the complement
of the gs design X; the joint second-moment equalities h2 = M pi; and their
stack (h3), whose Wald statistics add exactly at any evaluation point where
h1 Sigma h2' vanishes.

``decompose`` needs neither U nor any N x N array.  With J = dg/dpi and
D = diag(pi), J pi = 0, so H1 Sigma H1' = U'VU with V = J D J'; J is block
diagonal by orbit, J_o = diag(f''/pi_bar) - a 1'.  The orbit indicators Z
are columns of X, so U = B W with B the within-orbit contrasts (orthonormal
per orbit, B'Z = 0) and W a basis of the complement of B'M'.  Per orbit,
D^{1/2} J'B = QR has R'R = B'VB, and
U (U'VU)^{-1} U' = B R^{-1} (I - Pi) R^{-T} B', with Pi the orthogonal
projector onto the columns of R^{-T} B'M'.  Hence, with the whitened
g^ = (I - Pi) R^{-T} B'g and C^ = (I - Pi) R^{-T} B'C for C = J D M' (so
that H1 Sigma H2' = U'C):

* W_gs = n ||g^||^2, with N - (columns of X) degrees of freedom;
* W_me2 = n h2'(M Sigma M')^{-1} h2, with M Sigma M' = (M D) M' - h2 h2';
* W_s = W_gs + n r'S^{-1}r, with S = M Sigma M' - C^'C^ and r = h2 - C^'g^.

The QR factors come one batched call per orbit size, and Pi from the QR of
a matrix with only M's d2 columns (``decomposition_statistics``).  Whitening
by the QR factor instead of solving with X'V^{-1}X keeps the statistics
accurate where V is badly conditioned, as it is for power links far from
lambda = 0 on sparse tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import design, fitting
from .chi2 import chi2_sf
from .divergences import FFunction
from .tables import (
    CountTable,
    ProbTable,
    TableShape,
    _read_only,
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


def _link_jacobian(p: ProbTable, ff: FFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, e, a): the link values g = F(pi / pi_bar) and the orbit blocks
    J_o = diag(e) - a 1' of their Jacobian."""
    size = orbit_structure(p.shape).size_of_cell
    pi = p.probs
    pi_bar = orbit_sums(p.shape, pi) / size
    e = np.asarray(ff.f_second(pi / pi_bar)) / pi_bar
    return np.asarray(ff.F(pi / pi_bar)), e, pi * e / (size * pi_bar)


def _cross_covariance(p: ProbTable, e: np.ndarray, a: np.ndarray) -> np.ndarray:
    """C = J D M', the N x d2 cross-covariance of the link values and M pi."""
    orbits = orbit_structure(p.shape)
    Y = p.probs[:, None] * design.moment_matrix(p.shape).T
    return e[:, None] * Y - a[:, None] * orbits.sum_rows(Y)[orbits.orbit_id]


@lru_cache(maxsize=None)
def _orbit_blocks(shape: TableShape) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(cells, B) per orbit size above one: the cells of the orbits of that
    size, one orbit per row, and an orthonormal basis B of the vectors of
    that size that sum to zero."""
    orbits = orbit_structure(shape)
    blocks = []
    for size in sorted({int(s) for s in orbits.size if s > 1}):
        cells = orbits.order[orbits.starts[orbits.size == size][:, None] + np.arange(size)]
        B = np.linalg.qr(np.eye(size) - 1.0 / size)[0][:, : size - 1]
        blocks.append((_read_only(cells), _read_only(B)))
    return tuple(blocks)


def _whiten(p: ProbTable, e: np.ndarray, a: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """R^{-T} B'Y, stacked over the orbits of two or more cells, where
    D^{1/2} J'B = QR orbit by orbit; one batched QR and solve per orbit size."""
    out = []
    for cells, B in _orbit_blocks(p.shape):
        JtB = e[cells][:, :, None] * B - (a[cells] @ B)[:, None, :]
        r = np.linalg.qr(np.sqrt(p.probs[cells])[:, :, None] * JtB, mode="r")
        out.append(np.linalg.solve(r.transpose(0, 2, 1), B.T @ Y[cells]).reshape(-1, Y.shape[1]))
    return np.concatenate(out)


def decomposition_statistics(
    p: ProbTable, ff: FFunction, n: float
) -> tuple[float, float, float, bool]:
    """(W_gs, W_me2, W_s, ridged) at an interior table p, by the orbit blocks
    of the module docstring; ``ridged`` when M Sigma M' or S took the ridge."""
    design.design_matrix(p.shape, design.GS)  # refuses a rank-deficient design
    M = design.moment_matrix(p.shape)
    g, e, a = _link_jacobian(p, ff)
    W = _whiten(p, e, a, np.column_stack([g, _cross_covariance(p, e, a), M.T]))
    k = 1 + len(M)
    Q = np.linalg.qr(W[:, k:])[0]
    G = W[:, :k] - Q @ (Q.T @ W[:, :k])  # [g_hat | C_hat]
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
    _, e, a = _link_jacobian(sym, ff)
    C = orbit_structure(sym.shape).center_rows(_cross_covariance(sym, e, a))
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
    if p_obs.is_interior:
        p_eval, point = p_obs, "observed"
    else:
        p_eval, point = counts.smoothed_proportions(), "smoothed"
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
        evaluation_point=point,
        ridged=ridged,
    )

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
        fit = fitting.fit_model(counts, spec)
        fits[spec.family] = fit
        report.g2_partition.append(
            PartitionRow(family=spec.label, g2=fit.g2, df=fit.df, pvalue=fit.pvalue)
        )
    report.g2_gap = abs(
        fits["s"].g2 - fits[design.GS].g2 - fits["me2"].g2
    )
    return report


# The dense forms' names that code outside the package still reads here.
_ORACLE_NAMES = frozenset(("sigma", "f_jacobian", "orbit_averaging_matrix", "wald_statistic"))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
