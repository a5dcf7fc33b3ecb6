import numpy as np
import pytest

from fsym.tables import CountTable, ProbTable, TableShape


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_prob_table(rng, shape: TableShape, concentration: float = 1.0) -> ProbTable:
    return ProbTable(shape, rng.dirichlet(np.full(shape.n_cells, concentration)))


def random_count_table(rng, shape: TableShape, n: int = 500) -> CountTable:
    probs = rng.dirichlet(np.ones(shape.n_cells))
    return CountTable(shape, rng.multinomial(n, probs))


def restart_tables(seed):
    """The 16 tables of the restart sweep (``scripts/restart_sweep.py``) for
    one seed, as ((r, T, n, concentration), table) in draw order: for the
    shapes 2^3, 3^3, 4^3 and 3^4, for n in (60, 500) and concentration c in
    (1, 0.3), ``rng.multinomial(n, rng.dirichlet(full(N, c)))`` with
    ``rng = default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    for r, T in ((2, 3), (3, 3), (4, 3), (3, 4)):
        shape = TableShape(r, T)
        for n in (60, 500):
            for c in (1.0, 0.3):
                probs = rng.dirichlet(np.full(shape.n_cells, c))
                yield (r, T, n, c), CountTable(shape, rng.multinomial(n, probs))


def restart_table(seed, r, T, n, concentration):
    """One table of the restart sweep."""
    for key, counts in restart_tables(seed):
        if key == (r, T, n, concentration):
            return counts
    raise ValueError("not a table of the restart sweep")


def ladder_table(seed: int, r: int, T: int) -> CountTable:
    """A table of the benchmark's size ladder: a discretized correlated
    normal with about 20 counts per cell (variances 1 + (h - 1) / 4,
    correlation 0.7, cuts at the standard normal's quantiles k / r)."""
    from statistics import NormalDist

    rng = np.random.default_rng(seed)
    sd = np.sqrt(1.0 + 0.25 * np.arange(T))
    corr = np.full((T, T), 0.7)
    np.fill_diagonal(corr, 1.0)
    z = rng.standard_normal((20 * r**T, T)) @ np.linalg.cholesky(corr * np.outer(sd, sd)).T
    cuts = [NormalDist().inv_cdf(k / r) for k in range(1, r)]
    flat = np.searchsorted(cuts, z) @ (r ** np.arange(T - 1, -1, -1))
    return CountTable(TableShape(r, T), np.bincount(flat, minlength=r**T))


def dense_decomposition(p: ProbTable, ff, n: float):
    """(W_gs, W_me2, W_s, ridged) of ``wald.decompose`` from the dense N x N
    forms: the Wald kernel on h1 = U'F(pi / pi_bar), H1 = U' f_jacobian,
    on h2 = M pi, H2 = M, and on their stack."""
    from fsym.design import design_matrix, moment_matrix
    from fsym.tables import symmetric_average
    from fsym.oracle import _wald, f_jacobian

    U = design_matrix(p.shape, "gs").U
    M = moment_matrix(p.shape)
    h1 = U.T @ np.asarray(ff.F(p.probs / symmetric_average(p).probs))
    H1 = U.T @ f_jacobian(p, ff)
    h2 = M @ p.probs
    parts = [_wald(h, H, p, n) for h, H in (
        (h1, H1), (h2, M), (np.concatenate([h1, h2]), np.vstack([H1, M]))
    )]
    return (*(w for w, _ in parts), any(ridged for _, ridged in parts))


def moment_certificate(counts: CountTable, model: str, probs: np.ndarray) -> list[str]:
    """The first-order conditions of a moment family's MLE that the fitted
    table ``probs`` fails, checked from that table alone; empty when it is
    certified.

    Stationarity makes n_i / pi_i = nu + eta_i on the observed cells, and 0
    on zero cells with mass, with eta = J' mu spanned by the cells'
    constraint gradients J; on zero cells with mass 0, nu + eta_j >= 0.
    (nu, mu) are recovered on the support by least squares; where the
    support leaves them undetermined, a linear program looks for a choice
    that meets the zero cells.  Tolerances are relative to n: 1e-6 for the
    residual on the support, 1e-8 for the zero cells.
    """
    from scipy.optimize import linprog

    from fsym.moments import constraint_jacobian

    n, nvec = counts.n, counts.counts
    J = constraint_jacobian(model, ProbTable(counts.shape, probs))
    basis = np.column_stack([np.ones(len(probs)), J.T])
    support, empty = probs > 0, (nvec == 0) & (probs == 0)
    target = np.divide(nvec, probs, out=np.zeros_like(probs), where=support)[support]
    coef, _, _, sv = np.linalg.lstsq(basis[support], target, rcond=None)
    value = basis @ coef
    failed = []
    resid = float(np.max(np.abs(value[support] - target)))
    if resid > 1e-6 * n:
        failed.append(f"the support fits nu + eta to {resid:.3e}")
    held = float(np.max(np.abs(value[support & (nvec == 0)]), initial=0.0))
    if held > 1e-8 * n:
        failed.append(f"a zero cell with mass has slack {held:.3e}")
    worst = float(np.min(value[empty], initial=np.inf))
    # reduced where the support has at least as many cells as the basis has
    # columns: the same vt, without the support-square U
    rows = basis[support]
    free = np.linalg.svd(rows, full_matrices=len(rows) < rows.shape[1])[2]
    free = free[np.count_nonzero(sv > 1e-10 * sv.max()):].T
    if free.shape[1] and worst < -1e-8 * n:
        # the largest t <= 0 with value + D z >= t on every empty cell
        D = basis[empty] @ free
        res = linprog(
            np.r_[np.zeros(free.shape[1]), -1.0],
            A_ub=np.column_stack([-D, np.ones(len(D))]), b_ub=value[empty],
            bounds=[(None, None)] * free.shape[1] + [(None, 0.0)],
        )
        if res.status == 0:
            worst = -res.fun
    if worst < -1e-8 * n:
        failed.append(f"a zero cell with mass 0 has slack {worst:.3e}")
    return failed
