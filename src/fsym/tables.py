"""Cell indexing, symmetric orbits, and orbit averaging for r**T contingency tables.

Cells are 1-based coordinate tuples ``(i_1, ..., i_T)`` with each coordinate in
``{1, ..., r}``.  The linear index is lexicographic with the first coordinate
most significant, so score vectors built from Kronecker products line up with
the cell enumeration by construction.

An orbit is the set of cells whose coordinates permute into each other; its
representative is its non-decreasing cell.  Orbits are numbered by the
lexicographic order of their representatives, which is also the order in
which they first appear among the cells, and each orbit lists its member
cells in ascending index order.  ``orbit_structure`` caches this one
``Orbits`` per (r, T) for every module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

Cell = tuple[int, ...]

# Tables are length-N vectors; reject configurations whose cell count exceeds
# this.  Only the lazy X, Xs and U of ``DesignSystem`` and the test oracles
# build N x O or N x N arrays, and ``fsym design`` refuses shapes too large for U.
INDEX_CAP = 10**7


class DegenerateOrbitError(ValueError):
    """Raised when an orbit carries zero mass where positivity is required."""


@dataclass(frozen=True)
class TableShape:
    """Dimensions of an r**T table plus the ordinal category scores.

    ``scores`` defaults to the equally spaced values ``1, ..., r``.
    """

    r: int
    T: int
    scores: tuple[float, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"need at least two categories, got r={self.r}")
        if self.T < 2:
            raise ValueError(f"need at least two variables, got T={self.T}")
        if self.r**self.T > INDEX_CAP:
            raise ValueError(f"r**T = {self.r**self.T} exceeds the cap {INDEX_CAP}")
        scores = self.scores
        if scores is None:
            scores = tuple(float(k) for k in range(1, self.r + 1))
        else:
            scores = tuple(float(u) for u in scores)
            if len(scores) != self.r:
                raise ValueError(f"expected {self.r} scores, got {len(scores)}")
            if any(a >= b for a, b in zip(scores, scores[1:])):
                raise ValueError("scores must be strictly increasing")
        object.__setattr__(self, "scores", scores)

    @property
    def n_cells(self) -> int:
        return self.r**self.T

    @property
    def n_orbits(self) -> int:
        """Number of symmetric classes, C(r+T-1, T)."""
        return math.comb(self.r + self.T - 1, self.T)

    def score_of(self, cell: Cell) -> np.ndarray:
        """Score vector (u_{i_1}, ..., u_{i_T}) of a single cell."""
        return np.array([self.scores[c - 1] for c in cell])


@dataclass(frozen=True)
class CountTable:
    shape: TableShape
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (self.shape.n_cells,):
            raise ValueError(
                f"expected {self.shape.n_cells} counts, got {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if counts.sum() <= 0:
            raise ValueError("total count must be positive")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> float:
        return float(self.counts.sum())

    def proportions(self) -> "ProbTable":
        return ProbTable(self.shape, self.counts / self.n)

    def smoothed_proportions(self) -> "ProbTable":
        """Proportions plus 1/2 in every cell; interior even with sampling zeros."""
        return ProbTable(
            self.shape,
            (self.counts + 0.5) / (self.n + 0.5 * self.shape.n_cells),
        )


@dataclass(frozen=True)
class ProbTable:
    """Probabilities over the r**T cells.  Zeros are tolerated; operations that
    need an interior table check ``is_interior`` themselves."""

    shape: TableShape
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.shape.n_cells,):
            raise ValueError(f"expected {self.shape.n_cells} cells, got {probs.shape}")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def is_interior(self) -> bool:
        return bool(np.all(self.probs > 0))


def cell_index(shape: TableShape, cell: Cell) -> int:
    """Linear index of a cell under lexicographic order."""
    if len(cell) != shape.T:
        raise ValueError(f"expected {shape.T} coordinates, got {len(cell)}")
    idx = 0
    for c in cell:
        if not 1 <= c <= shape.r:
            raise ValueError(f"coordinate {c} outside 1..{shape.r}")
        idx = idx * shape.r + (c - 1)
    return idx


def cell_of_index(shape: TableShape, index: int) -> Cell:
    """Inverse of :func:`cell_index`."""
    if not 0 <= index < shape.n_cells:
        raise ValueError(f"index {index} outside 0..{shape.n_cells - 1}")
    coords = []
    for _ in range(shape.T):
        index, rem = divmod(index, shape.r)
        coords.append(rem + 1)
    return tuple(reversed(coords))


def all_cells(shape: TableShape):
    """Cells in lexicographic order."""
    return itertools.product(range(1, shape.r + 1), repeat=shape.T)


def orbit(cell: Cell) -> tuple[Cell, ...]:
    """The symmetric set of a cell: all distinct coordinate permutations."""
    return tuple(sorted(set(itertools.permutations(cell))))


def orbit_representative(cell: Cell) -> Cell:
    """Non-decreasing reordering of the coordinates; constant on each orbit."""
    return tuple(sorted(cell))


@dataclass(frozen=True)
class Orbits:
    """Cells grouped by orbit id, with per-orbit reductions over cell vectors.

    ``orbit_structure`` gives the orbits of a table shape; ``Orbits.of`` groups
    any labelling of cells by ids ``0..k-1``.  Every array is read-only.
    """

    orbit_id: np.ndarray  # cell index -> orbit number
    size: np.ndarray  # cells per orbit
    order: np.ndarray  # cells sorted by orbit, ascending within each orbit
    starts: np.ndarray  # first sorted position of each orbit
    members: tuple[np.ndarray, ...]  # orbit number -> cell indices, ascending
    size_of_cell: np.ndarray  # |D(i)| per cell
    _stacked_ids: np.ndarray = field(default_factory=lambda: _read_only(np.empty(0, np.intp)),
                                     init=False, repr=False, compare=False)

    @classmethod
    def of(cls, orbit_id: np.ndarray) -> "Orbits":
        orbit_id = _read_only(np.array(orbit_id, dtype=np.intp))
        counts = np.bincount(orbit_id)
        order = _read_only(np.argsort(orbit_id, kind="stable"))
        starts = _read_only(np.concatenate([[0], np.cumsum(counts)[:-1]]))
        size = _read_only(counts.astype(float))
        return cls(
            orbit_id=orbit_id,
            size=size,
            order=order,
            starts=starts,
            members=tuple(np.split(order, starts[1:])),
            size_of_cell=_read_only(size[orbit_id]),
        )

    def sum(self, v: np.ndarray) -> np.ndarray:
        """Orbit totals of the cell values on v's last axis.  Each row's totals
        are added in cell order, as for that row alone, by one ``bincount``
        over a flat index that numbers row k's orbits from k * n_orbits.  The
        index of the largest stack seen is kept, read-only, and a smaller
        stack reads its leading slice."""
        n_orb = len(self.size)
        rows = v.size // v.shape[-1]
        if rows == 1:  # one table, alone or as a stack of one
            return np.bincount(self.orbit_id, weights=v.ravel(), minlength=n_orb).reshape(
                v.shape[:-1] + (n_orb,))
        n_ids = rows * len(self.orbit_id)
        ids = self._stacked_ids  # replaced when it grows, never written
        if len(ids) < n_ids:
            ids = _read_only((np.arange(rows)[:, None] * n_orb + self.orbit_id).ravel())
            object.__setattr__(self, "_stacked_ids", ids)
        return np.bincount(ids[:n_ids], weights=v.ravel()).reshape(*v.shape[:-1], n_orb)

    def sum_rows(self, V: np.ndarray) -> np.ndarray:
        """Orbit totals of the cell rows on V's second-to-last axis."""
        return np.add.reduceat(V[..., self.order, :], self.starts, axis=-2)

    def center_rows(self, V: np.ndarray) -> np.ndarray:
        """Each cell row of the N-row matrix V minus its orbit's mean row."""
        return V - (self.sum_rows(V) / self.size[:, None])[self.orbit_id]

    def min(self, v: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(v[..., self.order], self.starts, axis=-1)

    def max(self, v: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(v[..., self.order], self.starts, axis=-1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _orbit_structure(r: int, T: int) -> Orbits:
    # Rows of ``coords`` are the cells' 0-based coordinates in index order.
    # Sorting a row gives the orbit's representative, and the representative's
    # index names the orbit.  Orbits are numbered by counting representatives
    # in increasing index, i.e. lexicographic, order, which is also the order
    # in which the orbits first appear, since a representative is the first
    # cell of its orbit.
    coords = np.indices((r,) * T).reshape(T, -1).T
    rep_index = np.sort(coords, axis=1) @ r ** np.arange(T - 1, -1, -1)
    is_rep = np.zeros(r**T, dtype=bool)
    is_rep[rep_index] = True
    return Orbits.of(np.cumsum(is_rep)[rep_index] - 1)


def orbit_structure(shape: TableShape) -> Orbits:
    """Cached orbit decomposition of the cell set (scores play no role)."""
    return _orbit_structure(shape.r, shape.T)


def orbit_sums(shape: TableShape, values: np.ndarray) -> np.ndarray:
    """Per-cell sum of ``values`` over each cell's orbit, on the last axis."""
    struct = orbit_structure(shape)
    return struct.sum(values)[..., struct.orbit_id]


def symmetric_average(p: ProbTable) -> ProbTable:
    """The nearest completely symmetric table: orbit-wise averaging."""
    struct = orbit_structure(p.shape)
    return ProbTable(p.shape, orbit_sums(p.shape, p.probs) / struct.size_of_cell)


def conditional_within_orbit(p: ProbTable) -> np.ndarray:
    """Each cell's probability conditional on its orbit.

    Requires every orbit to carry positive mass.
    """
    sums = orbit_sums(p.shape, p.probs)
    if np.any(sums <= 0):
        bad = int(np.argmin(sums))
        raise DegenerateOrbitError(
            f"orbit of cell {cell_of_index(p.shape, bad)} has zero total probability"
        )
    return p.probs / sums
