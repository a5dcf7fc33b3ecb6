"""Link-space evaluation shared by the asymmetry-model fits and the projection.

The gs/els/ls models and the minimum-divergence projection both put each
cell's share of its orbit on a link scale,

    c_i = F^{-1}(z_i + gamma_o) / |o|,    z = X theta,

with one normalizer gamma_o per orbit so that the shares of every orbit sum
to one.  Every standard f-function has a power link,
F^{-1}(y) = (1 + lam y)^(1/lam) with lam = ``FFunction.link_lam`` (exp(y) at
lam = 0; ``divergences.inverse_link``), so one set of formulas serves all of
them, vectorized over the orbits.  With u = 1 + lam y and g = F^{-1}(y):

    dg/dy = g / u,    d2g/dy2 = (1 - lam) g / u^2.

For lam > 0 the domain y > -1/lam has a finite edge at which g = 0, and a
zero-count cell can be *held* there with its share exactly 0.  How a held
cell enters the orbit's normalizer depends on dg/dy = u^(1/lam - 1) at the
edge:

* lam <= 1: dg/dy is finite (1 for Pearson, 0 below), so a held cell simply
  leaves the normalizer; gamma_o still solves the unit sum over the other
  cells, and the held cell's y = -1/lam is a constraint on theta.
* lam > 1: dg/dy is infinite, so the cell *pins* its orbit instead: gamma_o
  = -1/lam - z_p for the held cell p with the lowest z, every other held
  cell q of the orbit is tied to it (y_q = -1/lam), and the unit sum over
  the orbit's free cells becomes a constraint on theta (``pins``).

``normalizers`` solves the orbits of one table or, over leading axes, of a
stack of tables of one shape, each orbit of each table alone, and
``LinkSpace.evaluate`` builds the point of one table or of a stack, with
held and pinned cells, for ``fitting``'s link climb.  The orbit type,
``Orbits``, lives in ``tables`` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import design
from .divergences import FFunction, inverse_link, link
from .tables import Orbits, TableShape, orbit_structure

NORMALIZER_TOL = 1e-13


class InfeasibleParameterError(ValueError):
    """No per-orbit normalizer exists inside the F^{-1} domain.

    ``orbits`` marks the orbits without a root, when known, with the shape
    of the normalizers: (..., O) for a stack of tables.
    """

    def __init__(self, message, orbits=None):
        super().__init__(message)
        self.orbits = orbits


def normalizers(z, orbits: Orbits, lam: float, free=None, start=None) -> np.ndarray:
    """gamma_o with sum over the free cells of o of F^{-1}(z_i + gamma_o) = |o|.

    ``z`` and ``free`` hold the cells on their last axis, (..., N); gamma,
    like ``start``, has shape (..., O), and each orbit of each table is
    solved alone.  Closed forms for lam = 0 (log-sum-exp) and lam = 1 (mean
    shift).  Otherwise a Newton iteration, safeguarded by bisection inside a
    bracket that keeps every free cell inside the F^{-1} domain and
    warm-started from ``start``.  Raises InfeasibleParameterError when some
    orbit has no root in the domain.
    """
    oid, size = orbits.orbit_id, orbits.size
    zhi = orbits.max(z if free is None else np.where(free, z, -np.inf))
    if lam == 0.0:  # no edge, so nothing is ever held
        return np.log(size / orbits.sum(np.exp(z - zhi[..., oid]))) - zhi
    k = size if free is None else orbits.sum(free.astype(float))
    zlo = orbits.min(z if free is None else np.where(free, z, np.inf))
    if lam == 1.0:
        gamma = (size - k - orbits.sum(z if free is None else np.where(free, z, 0.0))) / k
        bad = zlo + gamma <= -1.0
        if np.any(bad):
            raise InfeasibleParameterError("orbit normalizer has no root in the domain", bad)
        return gamma

    # At gamma = shift - zhi every free g <= |o| / k, at shift - zlo every g >= it.
    shift = 0.0 if free is None else link(size / k, lam)
    lo, hi = shift - zhi, shift - zlo
    edge = -1.0 / lam - (zlo if lam > 0 else zhi)
    with np.errstate(all="ignore"):

        def excess(gamma):
            g, u = inverse_link(z + gamma[..., oid], lam)
            if free is not None:  # held cells may lie past the edge
                g, u = np.where(free, g, 0.0), np.where(free, u, 1.0)
            return orbits.sum(g) - size, orbits.sum(g / u)

        if lam > 0:
            at_edge = edge >= lo
            lo = np.maximum(lo, edge)
            bad = at_edge & (excess(lo)[0] >= 0) if np.any(at_edge) else at_edge
            if np.any(bad):
                raise InfeasibleParameterError(
                    "orbit normalizer has no root: sum exceeds the orbit size "
                    "over the whole domain",
                    bad,
                )
        else:
            hi = np.minimum(hi, edge)
        if start is None:
            start = hi if lam < 1 else lo  # the side Newton approaches monotonically
        inside = (start >= lo) & (start <= hi) & (start != edge)
        gamma = np.where(inside, start, 0.5 * (lo + hi))
        for _ in range(100):
            phi, dphi = excess(gamma)
            lo = np.where(phi < 0, gamma, lo)
            hi = np.where(phi > 0, gamma, hi)
            todo = ~(np.abs(phi) <= NORMALIZER_TOL * size)
            if not np.any(todo):
                break
            newton = gamma - phi / dphi
            nxt = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            if np.all(nxt[todo] == gamma[todo]):
                break  # bracket down to rounding
            gamma = np.where(todo, nxt, gamma)
    return gamma


@dataclass
class LinkPoint:
    """Link values at one theta, or at each row of a stack of them:
    y = z + gamma_o, g = F^{-1}(y), u = 1 + lam y."""

    theta: np.ndarray
    gamma: np.ndarray  # per orbit
    y: np.ndarray
    g: np.ndarray  # 0 at held cells
    u: np.ndarray
    w: np.ndarray  # dg/dy
    held: np.ndarray
    pin: np.ndarray | None  # per orbit, the held cell that fixes gamma_o, or -1

    def __getitem__(self, rows) -> "LinkPoint":
        """The point of ``rows`` of a stacked point."""
        return LinkPoint(*(None if v is None else v[rows] for v in vars(self).values()))

    def __setitem__(self, rows, other: "LinkPoint"):
        """Write the stacked point ``other`` into ``rows`` of this one."""
        for mine, theirs in zip(vars(self).values(), vars(other).values()):
            if mine is not None:
                mine[rows] = theirs

    @staticmethod
    def concatenate(points) -> "LinkPoint":
        """One stacked point of the rows of several."""
        fields = zip(*(vars(pt).values() for pt in points))
        return LinkPoint(*(None if v[0] is None else np.concatenate(v) for v in fields))


class LinkSpace:
    """Orbit bookkeeping and design columns of one shape, for one f-function."""

    def __init__(self, shape: TableShape, ff: FFunction, X: np.ndarray):
        self.shape = shape
        self.orbits = orbit_structure(shape)
        self.X = np.ascontiguousarray(X)
        self.lam = ff.link_lam
        self.pins = self.lam > 1.0  # held cells pin their orbit's normalizer

    @cached_property
    def centered(self) -> np.ndarray:
        """dy/dtheta at theta = 0, where every dg/dy is 1; read-only, as
        ``slopes`` hands it out."""
        centered = self.orbits.center_rows(self.X)
        centered.flags.writeable = False
        return centered

    @cached_property
    def _lift(self) -> np.ndarray:
        return np.linalg.pinv(self.centered)

    def theta_of(self, y: np.ndarray) -> np.ndarray:
        """Least-squares theta of link values y, up to per-orbit constants;
        one per row of y."""
        return (self._lift @ y[..., None])[..., 0]

    def evaluate(self, theta, held=None, start=None, holdable=None) -> LinkPoint:
        """Link values at theta, of one table or of a stack on the leading
        axis, each row solved alone; held cells sit at g = 0 outside the
        normalizers, and under lam > 1 ``pin`` is -1 where nothing pins.

        In a stack, where an orbit's normalizer has no root because its
        lowest free cell would cross the edge, that cell is held instead if
        ``holdable`` allows.  Raises InfeasibleParameterError where an orbit
        has no root otherwise, a pin leaves a free cell past the edge or a
        link value overflows; its ``orbits`` marks the orbits without a root
        or, for the other two, every orbit of the row.
        """
        orbits, oid, n_cells = self.orbits, self.orbits.orbit_id, len(self.orbits.orbit_id)
        z = (self.X @ theta[..., None])[..., 0]
        held = np.zeros(z.shape, dtype=bool) if held is None else held.copy()
        while True:
            zs, free, pinned = z, None, None
            if self.pins and np.count_nonzero(held):
                pinned = orbits.sum(held) > 0
                # a pinned orbit's normalizer is not solved: all-zero z gives 0
                zs = np.where(pinned[..., oid], 0.0, z)
            elif not self.pins and np.count_nonzero(held):
                free = ~held
            try:
                gamma = normalizers(zs, orbits, self.lam, free, start)
                break
            except InfeasibleParameterError as exc:
                if holdable is None:
                    raise
                stuck = np.zeros(exc.orbits.shape, dtype=bool)
                for k, o in zip(*np.nonzero(exc.orbits)):
                    cells = orbits.members[o]
                    cells = cells[~held[k, cells]]
                    low = cells[np.argmin(z[k, cells])]
                    held[k, low], stuck[k, o] = holdable[k, low], not holdable[k, low]
                if stuck.any():
                    raise InfeasibleParameterError(str(exc), stuck) from exc
        pin = np.full(gamma.shape, -1) if self.pins else None
        if pinned is not None:
            lowest = orbits.min(np.where(held, z, np.inf))
            at_pin = held & (z == lowest[..., oid])
            pin = np.where(pinned, orbits.min(np.where(at_pin, np.arange(n_cells), n_cells)), -1)
            gamma = np.where(pinned, -1.0 / self.lam - lowest, gamma)
        pt = self._point(theta, z, gamma, held, pin)
        bad = ~np.isfinite(pt.g)
        if pinned is not None:
            bad |= ~held & pinned[..., oid] & ~(pt.u > 0)
        if np.count_nonzero(bad):
            raise InfeasibleParameterError(
                "link values overflow, or a free cell of a pinned orbit crosses the edge",
                np.broadcast_to(bad.any(axis=-1)[..., None], gamma.shape),
            )
        return pt

    def _point(self, theta, z, gamma, held, pin=None) -> LinkPoint:
        """The point of one table or a stack with design values z and
        normalizers gamma: y, g (0 at held cells), u and dg/dy.  The callers
        refuse a g that overflowed."""
        y = z + gamma[..., self.orbits.orbit_id]
        g, u = inverse_link(y, self.lam)
        g = np.where(held, 0.0, g)
        with np.errstate(invalid="ignore"):  # inf / inf where g overflowed
            w = _dg_dy(g, u, self.lam)
        return LinkPoint(theta, gamma, y, g, u, w, held, pin)

    def slopes(self, pt: LinkPoint, out=None, work=None) -> np.ndarray:
        """dy/dtheta: each X row minus its orbit's reference row.

        In a free orbit that is the dg/dy-weighted mean row: implicit
        differentiation of the normalizer equations eliminates gamma.  In a
        pinned orbit it is the pin's row.  A stacked point gives one slope
        matrix per row, built in ``out`` with the weighted rows in ``work``
        when given (arrays of the result's shape), so that a climb over a
        stack need not allocate them at every step.  For lam = 1
        every dg/dy is 1, held cells included (``_dg_dy``), so every point's
        slopes are ``centered``, read-only and broadcast over a stack's rows.
        """
        if self.lam == 1.0:
            return np.broadcast_to(self.centered, pt.w.shape + self.X.shape[-1:])
        w, orbits = pt.w, self.orbits
        # the rows weighted in orbit order, as ``Orbits.sum_rows`` adds them
        rows = np.multiply(w[..., orbits.order, None], self._sorted_X, out=work)
        with np.errstate(invalid="ignore", divide="ignore"):  # a pinned orbit may have no free w
            ref = np.add.reduceat(rows, orbits.starts, axis=-2) / orbits.sum(w)[..., None]
        if pt.pin is not None:
            pinned = pt.pin >= 0
            ref[pinned] = self.X[pt.pin[pinned]]
        a = np.take(ref, orbits.orbit_id, axis=-2, out=out, mode="clip")  # "raise" would buffer out
        return np.subtract(self.X, a, out=a)

    @cached_property
    def _sorted_X(self) -> np.ndarray:
        return self.X[self.orbits.order]


def _dg_dy(g, u, lam):
    """dg/dy = g / u, with 0 where g is (a held cell's), and 1 for lam = 1.

    Under lam = 1 (Pearson) a held cell keeps dg/dy = 1, although it has
    left its orbit's normalizer, so ``slopes`` takes the mean of all the
    orbit's rows as the reference row, not the mean of its free rows.  That
    is intended: the held cells' edge rows a_h d = 0 make the two means
    agree on every direction d that keeps them, and that tangent space is
    where a fit steps.  Off it the two differ: with a weight of 0 there,
    60 of the 320 gs/els/ls Pearson fits on the restart-sweep tables
    (``scripts/restart_sweep.py``) raise FitError.
    """
    if lam == 1.0:
        return np.ones_like(g)
    return np.divide(g, u, out=np.zeros(g.shape), where=g > 0)


@lru_cache(maxsize=64)
def link_space(shape: TableShape, family: str, ff: FFunction) -> LinkSpace:
    """Cached engine over the non-gamma design columns X2 of an asymmetry family."""
    return LinkSpace(shape, ff, design.design_matrix(shape, family).X2)
