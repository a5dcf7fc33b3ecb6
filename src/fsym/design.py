"""Moment coordinates, difference vectors and design systems for the asymmetry families.

One basis per shape underlies every model: the N x k matrix
F = [s_h | s_a s_b, a <= b] of each variable's cell scores and their pairwise
products (``moment_basis``, k = T + T(T+1)/2), so that m = F' pi holds the
means and raw second moments.  The difference vectors, the rows of
``moment_matrix``, are fixed combinations of its columns and, in this order,
the non-gamma column blocks of the design:

* ``alpha``: first-order score differences, one per adjacent variable pair
* ``beta_diag``: squared-score differences
* ``beta_offdiag``: consecutive differences of pairwise score products along
  the lexicographic chain of unordered variable pairs
* ``gamma``: 0/1 indicators of the symmetric classes

The extended-linear family drops the off-diagonal block and the linear family
additionally drops the diagonal block; the dropped effects are constant on
orbits and get absorbed by the gamma block.  Everything here is built once per
shape and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .tables import TableShape, orbit_structure

GS = "gs"
ELS = "els"
LS = "ls"
ASYMMETRY_FAMILIES = (GS, ELS, LS)


class ConfigurationError(ValueError):
    """Design construction failed, e.g. rank deficiency from degenerate scores."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def product_index(T: int) -> np.ndarray:
    """T x T column indices into the moment basis: entry (a, b) holds s_{a+1} s_{b+1}."""
    a, b = np.triu_indices(T)
    idx = np.zeros((T, T), dtype=np.intp)
    idx[a, b] = idx[b, a] = T + np.arange(len(a))
    return _read_only(idx)


@lru_cache(maxsize=None)
def moment_basis(shape: TableShape) -> np.ndarray:
    """N x k matrix [s_1 .. s_T | s_a s_b for a <= b], products in ``product_index`` order."""
    T = shape.T
    # variable 1 varies slowest over the lexicographic cell order
    s = np.asarray(shape.scores)[np.indices((shape.r,) * T).reshape(T, -1).T]
    a, b = np.triu_indices(T)
    return _read_only(np.hstack([s, s[:, a] * s[:, b]]))


def score_matrix(shape: TableShape) -> np.ndarray:
    """N x T matrix whose column h - 1 holds the scores of variable h in every cell."""
    return moment_basis(shape)[:, : shape.T]


def score_vector(shape: TableShape, h: int) -> np.ndarray:
    """Scores of variable h across all cells, 1_{r^{h-1}} (x) u (x) 1_{r^{T-h}}."""
    if not 1 <= h <= shape.T:
        raise ValueError(f"variable index {h} outside 1..{shape.T}")
    return score_matrix(shape)[:, h - 1]


def pair_chain(T: int) -> list[tuple[int, int]]:
    """All unordered variable pairs in lexicographic order, ending at (T-1, T)."""
    return [(s, t) for s in range(1, T) for t in range(s + 1, T + 1)]


def n_offdiag(T: int) -> int:
    """Number of off-diagonal difference columns, T(T-1)/2 - 1."""
    return T * (T - 1) // 2 - 1


@lru_cache(maxsize=None)
def difference_coefficients(T: int) -> np.ndarray:
    """The difference vectors in moment coordinates, one row each (d2 x k).

    Rows: s_h - s_{h+1}, then s_h^2 - s_{h+1}^2 for h = 1..T-1, then the
    consecutive differences of s_s s_t along ``pair_chain``.
    """
    idx = product_index(T)
    groups = (range(T), np.diag(idx), [idx[s - 1, t - 1] for s, t in pair_chain(T)])
    pairs = [(c, c_next) for cols in groups for c, c_next in zip(cols, cols[1:])]
    A = np.zeros((len(pairs), T + T * (T + 1) // 2))
    for row, (c, c_next) in enumerate(pairs):
        A[row, c], A[row, c_next] = 1.0, -1.0
    return _read_only(A)


@lru_cache(maxsize=None)
def _moment_matrix(shape: TableShape) -> np.ndarray:
    return _read_only(difference_coefficients(shape.T) @ moment_basis(shape).T)


def moment_matrix(shape: TableShape) -> np.ndarray:
    """Rows are all difference vectors; the joint second-moment constraints."""
    return _moment_matrix(shape)


@lru_cache(maxsize=None)
def independent_moment_rows(shape: TableShape) -> np.ndarray:
    """Indices of a maximal independent set of ``moment_matrix`` rows, first rows first.

    Every row for r >= 3.  With two categories a squared score is affine in
    the score, so the squared-score differences repeat the first-order ones
    and are left out.
    """
    M = _moment_matrix(shape)
    keep: list[int] = []
    for i in range(len(M)):
        if np.linalg.matrix_rank(M[keep + [i]]) > len(keep):
            keep.append(i)
    return _read_only(np.array(keep, dtype=np.intp))


def symmetry_indicator(shape: TableShape) -> np.ndarray:
    """0/1 matrix mapping each cell to its symmetric class (rows sum to one)."""
    struct = orbit_structure(shape)
    xs = np.zeros((shape.n_cells, len(struct.members)))
    xs[np.arange(shape.n_cells), struct.orbit_id] = 1.0
    return xs


def family_d2(family: str, T: int) -> int:
    """Number of non-gamma design columns per family."""
    if family == GS:
        return (T * T + 3 * T - 6) // 2
    if family == ELS:
        return 2 * T - 2
    if family == LS:
        return T - 1
    raise ValueError(f"unknown asymmetry family {family!r}")


@dataclass(frozen=True)
class DesignSystem:
    """Design matrix, symmetry indicator and orthogonal complement for a family."""

    shape: TableShape
    family: str
    X: np.ndarray
    Xs: np.ndarray
    v2_chain: tuple[tuple[int, int], ...]
    column_layout: dict[str, slice]

    @property
    def n_columns(self) -> int:
        return self.X.shape[1]

    @property
    def d1(self) -> int:
        return self.shape.n_cells - self.n_columns

    @property
    def d2(self) -> int:
        return self.n_columns - self.Xs.shape[1]

    @cached_property
    def U(self) -> np.ndarray:
        """Orthonormal basis of the complement of X's columns (an N x N SVD, run on first read)."""
        q, s, _ = np.linalg.svd(self.X, full_matrices=True)
        tol = max(self.X.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        return q[:, int(np.sum(s > tol)) :]


@lru_cache(maxsize=None)
def design_matrix(shape: TableShape, family: str) -> DesignSystem:
    """The design system of an asymmetry family, built once per shape."""
    if family not in ASYMMETRY_FAMILIES:
        raise ValueError(f"unknown asymmetry family {family!r}")
    T = shape.T
    widths = {"alpha": T - 1}
    if family in (GS, ELS):
        widths["beta_diag"] = T - 1
    if family == GS and n_offdiag(T) > 0:
        widths["beta_offdiag"] = n_offdiag(T)
    xs = symmetry_indicator(shape)
    widths["gamma"] = xs.shape[1]
    stops = np.cumsum(list(widths.values())).tolist()
    layout = {name: slice(stop - widths[name], stop) for name, stop in zip(widths, stops)}
    d2 = family_d2(family, T)
    X = np.hstack([moment_matrix(shape)[:d2].T, xs])

    # Full column rank is required; report the first offending block otherwise.
    if np.linalg.matrix_rank(X) < X.shape[1]:
        for name, cols in layout.items():
            if np.linalg.matrix_rank(X[:, : cols.stop]) < cols.stop:
                raise ConfigurationError(
                    f"design for family {family!r} at r={shape.r}, T={T} is rank deficient "
                    f"starting at the {name!r} block (degenerate scores?)"
                )
    return DesignSystem(
        shape=shape,
        family=family,
        X=X,
        Xs=xs,
        v2_chain=tuple(pair_chain(T)),
        column_layout=layout,
    )


def _telescope(prime: np.ndarray, length: int) -> np.ndarray:
    """Coefficients on raw terms from coefficients on consecutive differences.

    With values v_1..v_L and parameters on v_k - v_{k+1} for k < L, the raw
    coefficient of v_k is p_k - p_{k-1} (p_0 = 0) and of v_L is -p_{L-1}.
    """
    out = np.zeros(length)
    out[: len(prime)] = prime
    out[1 : len(prime) + 1] -= prime
    return out


def recover_coefficients(
    ds: DesignSystem, theta_prime: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map difference-basis parameters to the (alpha, B) of the model form.

    Normalized so alpha_T = B_TT = B_{(T-1)T} = 0; the discarded constants are
    symmetric functions of the cell scores and fold into the per-orbit terms.
    The off-diagonal entries of B are half the per-pair coefficients, so that
    u'Bu reproduces each unordered pair product exactly once.
    """
    theta_prime = np.asarray(theta_prime, dtype=float)
    if theta_prime.shape != (ds.n_columns,):
        raise ValueError(
            f"expected {ds.n_columns} parameters, got {theta_prime.shape}"
        )
    T = ds.shape.T
    alpha = _telescope(theta_prime[ds.column_layout["alpha"]], T)
    alpha -= alpha[-1]

    B = np.zeros((T, T))
    if "beta_diag" in ds.column_layout:
        diag = _telescope(theta_prime[ds.column_layout["beta_diag"]], T)
        diag -= diag[-1]
        np.fill_diagonal(B, diag)
    if "beta_offdiag" in ds.column_layout:
        chain = ds.v2_chain
        pair_coef = _telescope(
            theta_prime[ds.column_layout["beta_offdiag"]], len(chain)
        )
        pair_coef -= pair_coef[-1]
        for (s, t), b in zip(chain, pair_coef):
            B[s - 1, t - 1] = B[t - 1, s - 1] = 0.5 * b
    return alpha, B


def cell_predictor(shape: TableShape, alpha: np.ndarray, B: np.ndarray) -> np.ndarray:
    """u_i' alpha + u_i' B u_i evaluated at every cell."""
    s = score_matrix(shape)
    return s @ alpha + np.einsum("ns,st,nt->n", s, B, s)
