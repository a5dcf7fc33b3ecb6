"""The link-space engine: normalizers, theta-space fits and their KKT oracle."""

import warnings

import numpy as np
import pytest

import fsym.fitting as fitting
from fsym.datasets import anes_party_id
from fsym.design import design_matrix
from fsym.divergences import hellinger, kl, pearson, power
from fsym.fitting import FitError, ModelSpec, fit_model
from fsym.linkspace import (
    InfeasibleParameterError,
    LinkSpace,
    Orbits,
    inverse_link,
    link_space,
    normalizers,
)
from fsym.oracle import fit_hlp, linkform_constraint
from fsym.projection import ProjectionSpec, iproject
from fsym.tables import CountTable, TableShape, orbit_structure, orbit_sums
from fsym.wald import decompose

from conftest import restart_table

LINKS = [kl(), pearson(), hellinger(), power(0.5), power(-1.5)]
STEEP_LINKS = [power(1.5), power(2.0), power(3.0)]
FAMILIES = ("gs", "els", "ls")


def sweep_tables():
    """Random 3^3 and 4^3 tables, interior (n = 500) and sparse (n = 60)."""
    rng = np.random.default_rng(2405)
    tables = []
    for r in (3, 4):
        shape = TableShape(r, 3)
        for n in (500, 60):
            probs = rng.dirichlet(np.ones(shape.n_cells))
            tables.append(CountTable(shape, rng.multinomial(n, probs)))
    return tables


def within_orbit(fit):
    """(|o| pi_i / S_o per cell, mask of cells in orbits with positive mass)."""
    shape = fit.shape
    p = fit.pihat.probs
    mass = orbit_sums(shape, p)
    live = mass > 0
    ratio = np.zeros_like(p)
    ratio[live] = p[live] * orbit_structure(shape).size_of_cell[live] / mass[live]
    return ratio, live


class TestNormalizers:
    @pytest.mark.parametrize("ff", LINKS + [power(2.0)], ids=lambda f: f.name)
    def test_orbit_sums_restored(self, rng, ff):
        oid = np.repeat(np.arange(5), [1, 3, 3, 6, 2])
        orbits = Orbits.of(rng.permutation(oid))
        lam = ff.link_lam
        z = rng.normal(size=len(oid)) * 0.1
        gamma = normalizers(z, orbits, lam)
        g, _ = inverse_link(z + gamma[orbits.orbit_id], lam)
        assert np.max(np.abs(orbits.sum(g) - orbits.size)) < 1e-12

    def test_held_cells_leave_the_sum(self):
        orbits = Orbits.of(np.zeros(3, dtype=np.intp))
        z = np.array([0.3, -0.1, -2.0])
        held = np.array([False, False, True])
        for ff in (pearson(), power(0.5)):
            lam = ff.link_lam
            gamma = normalizers(z, orbits, lam, free=~held)
            g, _ = inverse_link(z[:2] + gamma[0], lam)
            assert g.sum() == pytest.approx(3.0, abs=1e-12)

    def test_infeasible_orbit_is_named(self):
        oid = np.array([0, 1, 1])
        z = np.array([0.0, 8.0, -8.0])
        with pytest.raises(InfeasibleParameterError) as err:
            normalizers(z, Orbits.of(oid), 1.0)
        assert err.value.orbits.tolist() == [False, True]

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 0.5])
    def test_a_stack_equals_each_row_alone(self, rng, lam):
        orbits = orbit_structure(TableShape(3, 3))
        z = rng.normal(size=(4, 27)) * 0.3
        gamma = normalizers(z, orbits, lam)
        assert gamma.shape == (4, 10)
        for k in range(4):
            assert np.array_equal(gamma[k], normalizers(z[k], orbits, lam))
        # warm-started from the solution, each row still matches its own call
        warm = normalizers(z, orbits, lam, start=gamma)
        for k in range(4):
            assert np.array_equal(warm[k], normalizers(z[k], orbits, lam, start=gamma[k]))

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_a_stack_names_the_row_without_a_root(self, rng, lam):
        # row 2's cell 1 is far below the rest of its orbit: every normalizer
        # that keeps it in the domain leaves the orbit's sum above |o|
        orbits = orbit_structure(TableShape(3, 3))
        z = rng.normal(size=(4, 27)) * 0.1
        o = orbits.orbit_id[1]
        z[2, orbits.members[o][0]] = -50.0
        with pytest.raises(InfeasibleParameterError) as err:
            normalizers(z, orbits, lam)
        bad = err.value.orbits
        assert bad.shape == (4, 10)
        assert np.flatnonzero(bad.any(axis=1)).tolist() == [2]
        assert np.flatnonzero(bad[2]).tolist() == [o]
        with pytest.raises(InfeasibleParameterError) as alone:
            normalizers(z[2], orbits, lam)
        assert np.array_equal(alone.value.orbits, bad[2])


def small_theta(rng, space, *rows):
    """Random theta, one per row, that moves no design value by much."""
    return rng.normal(size=rows + space.X.shape[1:]) * 0.02 / np.abs(space.X).max()


def held_point(rng, ff, shape, n_held):
    """(space, point) of gs under ff at a small random theta, with the lowest
    cell of each of the first n_held orbits of two or more cells held."""
    space = link_space(shape, "gs", ff)
    theta = small_theta(rng, space)
    z = space.X @ theta
    held = np.zeros(len(z), dtype=bool)
    for cells in [cells for cells in space.orbits.members if len(cells) > 1][:n_held]:
        held[cells[np.argmin(z[cells])]] = True
    return space, space.evaluate(theta, held)


class TestSlopes:
    """dy/dtheta (``LinkSpace.slopes``)."""

    @pytest.mark.parametrize("ff", [kl(), hellinger(), power(0.5), power(2.0)], ids=lambda f: f.name)
    def test_buffers_and_a_stack_give_each_rows_slopes(self, rng, ff):
        space = link_space(TableShape(4, 3), "gs", ff)
        theta = small_theta(rng, space, 5)
        pt = space.evaluate(theta)
        out, work = np.empty((2, 5) + space.X.shape)
        a = space.slopes(pt, out, work)
        assert a is out
        for k in range(5):
            alone = space.evaluate(theta[k])
            for got, want in zip(vars(pt[k]).values(), vars(alone).values()):
                assert np.array_equal(got, want)
            assert np.array_equal(a[k], space.slopes(alone))

    def test_pearson_slopes_are_the_weighted_formula(self, rng):
        space = link_space(TableShape(4, 3), "gs", pearson())
        stacked = space.evaluate(small_theta(rng, space, 5))
        _, held = held_point(rng, pearson(), TableShape(4, 3), 16)
        assert held.held.sum() == 16
        orbits, X = space.orbits, space.X
        for pt in (stacked, held):
            assert np.all(pt.w == 1.0)
            ref = orbits.sum_rows(pt.w[..., None] * X) / orbits.sum(pt.w)[..., None]
            want = X - np.take(ref, orbits.orbit_id, axis=-2)
            got = space.slopes(pt)
            assert np.shares_memory(got, space.centered) and not got.flags.writeable
            assert np.array_equal(got, want)

    def test_pearson_held_cells_keep_unit_slope_weight(self, rng):
        # A held cell leaves its orbit's normalizer but keeps dg/dy = 1, so
        # the reference row is the mean of all the orbit's rows.  Along a
        # direction that keeps the held rows, that gives each cell's exact
        # change in y (Pearson's y is affine in theta); off it, it does not.
        space, pt = held_point(rng, pearson(), TableShape(3, 3), 2)
        assert pt.held.sum() == 2 and np.all(pt.w[pt.held] == 1.0)
        a = space.slopes(pt)
        _, sv, vt = np.linalg.svd(a[pt.held])
        tangent = vt[np.count_nonzero(sv > 1e-12 * sv[0]):].T
        assert tangent.shape[1] > 0
        d = tangent @ rng.normal(size=tangent.shape[1])
        d *= np.linalg.norm(small_theta(rng, space)) / np.linalg.norm(d)
        moved = space.evaluate(pt.theta + d, pt.held)
        np.testing.assert_allclose(moved.y - pt.y, a @ d, rtol=0, atol=1e-14)
        off = a[pt.held][0] * np.linalg.norm(d) / np.linalg.norm(a[pt.held][0])
        moved = space.evaluate(pt.theta + off, pt.held)
        assert np.max(np.abs(moved.y - pt.y - a @ off)) > 0.1 * np.linalg.norm(d)


def assert_model_point(counts, fit):
    """The fit is a point of its model: observed orbit masses, zero shares
    only on empty cells, and link values in the design span (F(0) = -1/lam
    on held cells)."""
    shape, ff = counts.shape, fit.spec.ff
    observed = orbit_sums(shape, counts.counts) / counts.n
    assert np.max(np.abs(orbit_sums(shape, fit.pihat.probs) - observed)) < 1e-12
    ratio, live = within_orbit(fit)
    link = np.full_like(ratio, -1.0 / ff.link_lam if ff.link_lam > 0 else 0.0)
    pos = ratio > 0
    link[pos] = ff.F(ratio[pos])
    assert np.all(pos[live] | (counts.counts[live] == 0))
    X = design_matrix(shape, fit.spec.family).X
    assert np.max(np.abs((X @ fit.theta_prime - link)[live])) < 1e-8


class TestOracleSweep:
    """The theta-space MLE against fit_hlp on the link-form constraint."""

    @pytest.mark.parametrize(
        "counts", sweep_tables(), ids=lambda c: f"{c.shape.r}^{c.shape.T}-n{c.n:g}"
    )
    def test_engine_matches_or_beats_kkt(self, counts):
        shape = counts.shape
        agreed = 0
        for family in FAMILIES:
            for ff in LINKS:
                ours = fit_model(counts, ModelSpec(family, ff))
                oracle = fit_hlp(counts, linkform_constraint(shape, family, ff))
                assert_model_point(counts, ours)
                # never worse than the oracle, and equal wherever the oracle
                # stays off the F^-1 edge (where it stalls short of the MLE)
                assert ours.g2 <= oracle.g2 + 1e-6
                oracle_ratio, oracle_live = within_orbit(oracle)
                if oracle_ratio[oracle_live].min() > 1e-6:
                    assert ours.g2 == pytest.approx(oracle.g2, abs=1e-6)
                    agreed += 1
        assert agreed >= 10

    @pytest.mark.parametrize(
        "counts", sweep_tables(), ids=lambda c: f"{c.shape.r}^{c.shape.T}-n{c.n:g}"
    )
    def test_steep_links_match_or_beat_kkt(self, counts):
        # lam > 1 links have several likelihood maxima, and either fit may
        # stop at a lower one: the engine's G2 may be below the oracle's,
        # never above it
        for family in FAMILIES:
            for ff in STEEP_LINKS:
                ours = fit_model(counts, ModelSpec(family, ff))
                oracle = fit_hlp(counts, linkform_constraint(counts.shape, family, ff))
                assert_model_point(counts, ours)
                assert ours.g2 <= oracle.g2 + 1e-6

    @pytest.mark.parametrize(
        "case",
        [
            # (seed, r, T, n, concentration, family)
            (4, 3, 3, 60, 0.3, "gs"),
            (6, 4, 3, 500, 0.3, "gs"),
            (8, 3, 4, 60, 0.3, "ls"),
            (2, 3, 4, 60, 1.0, "gs"),
            (3, 4, 3, 60, 1.0, "els"),
            (5, 3, 4, 500, 0.3, "els"),
        ],
        ids=lambda c: "{5}-s{0}-{1}^{2}-n{3}-c{4:g}".format(*c),
    )
    def test_steep_link_regressions(self, case):
        # sparse restart-sweep tables on which a power(2) climb easily ends
        # in FitError or at a lower likelihood maximum than the oracle's
        *table, family = case
        counts = restart_table(*table)
        ff = power(2.0)
        ours = fit_model(counts, ModelSpec(family, ff))
        oracle = fit_hlp(counts, linkform_constraint(counts.shape, family, ff))
        assert_model_point(counts, ours)
        assert ours.g2 <= oracle.g2 + 1e-6


class TestLinkFit:
    def test_panel_pearson_boundary_is_exact(self):
        table = anes_party_id()
        fit = fit_model(table, ModelSpec("gs", pearson()))
        assert fit.iterations <= 10
        zero = fit.pihat.probs == 0
        assert zero.sum() == 1 and table.counts[zero] == 0
        assert fit.g2 == pytest.approx(13.710728712, abs=1e-6)

    @pytest.mark.parametrize("ff", LINKS, ids=lambda f: f.name)
    def test_symmetric_table_takes_no_step(self, rng, ff):
        shape = TableShape(3, 3)
        struct = orbit_structure(shape)
        counts = CountTable(shape, rng.integers(1, 40, len(struct.members))[struct.orbit_id])
        for family in FAMILIES:
            fit = fit_model(counts, ModelSpec(family, ff))
            assert fit.iterations == 0
            assert fit.g2 == 0.0

    def test_empty_orbit_fitted_at_zero(self):
        table = anes_party_id()
        counts = table.counts.copy()
        struct = orbit_structure(table.shape)
        counts[struct.members[1]] = 0
        for ff in LINKS:
            fit = fit_model(CountTable(table.shape, counts), ModelSpec("gs", ff))
            assert np.all(fit.pihat.probs[struct.members[1]] == 0)
            assert np.all(np.isfinite(fit.theta_prime))

    def test_steep_power_links_fit_in_theta_space(self):
        table = anes_party_id()
        for family in FAMILIES:
            for ff in STEEP_LINKS:
                fit = fit_model(table, ModelSpec(family, ff))
                oracle = fit_hlp(table, linkform_constraint(table.shape, family, ff))
                assert fit.g2 <= oracle.g2 + 1e-6
                if (family, ff.link_lam) == ("gs", 2.0):
                    assert fit.iterations <= 10
                # held cells at exactly 0, and on the edge: X theta' = -1/lam
                held = fit.pihat.probs == 0
                assert np.all(table.counts[held] == 0) and (family != "gs" or held.any())
                assert_model_point(table, fit)
                assert len(fitting.potential_params(fit)) == 27

    @pytest.mark.parametrize("ff", [kl(), power(2.0)], ids=lambda f: f.name)
    def test_both_link_routes_stop_at_the_iteration_cap(self, ff, monkeypatch):
        # MAX_ITER reaches the one-start climb and the lam > 1 multi-start one
        monkeypatch.setattr(fitting, "MAX_ITER", 100)
        assert fit_model(anes_party_id(), ModelSpec("gs", ff)).converged
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        with pytest.raises(FitError, match="within 1 iterations"):
            fit_model(anes_party_id(), ModelSpec("gs", ff))

    def test_iteration_cap_names_the_score_norm(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITER", 2)
        with pytest.raises(FitError, match="within 2 iterations; final score norm") as err:
            fit_model(anes_party_id(), ModelSpec("gs", pearson()))
        assert len(err.value.trace) == 3

    def test_singular_information_is_named(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("test")

        monkeypatch.setattr(fitting, "_theta_information", singular)
        with pytest.raises(FitError, match="singular information matrix at iteration 0"):
            fit_model(anes_party_id(), ModelSpec("gs", kl()))

    @pytest.mark.parametrize("ff", [hellinger(), power(-1.0), power(-1.1)], ids=lambda f: f.name)
    def test_numerically_singular_information_is_solved(self, ff):
        # On this restart-sweep table an information matrix that passed its
        # Cholesky test is singular to np.linalg.solve late in the climb.
        # The fit drives zero-count shares to 1e-6 or below, where the link
        # values reach 1e5 to 1e6, so the model-point checks of
        # assert_model_point are made relative to their size here.
        counts = restart_table(7, 3, 3, 60, 0.3)
        fit = fit_model(counts, ModelSpec("gs", ff))
        assert fit.converged
        shape = counts.shape
        observed = orbit_sums(shape, counts.counts) / counts.n
        assert np.max(np.abs(orbit_sums(shape, fit.pihat.probs) - observed)) < 1e-10
        ratio, live = within_orbit(fit)
        assert np.all(ratio[live] > 0)
        link = np.asarray(ff.F(ratio[live]))
        X = design_matrix(shape, "gs").X
        assert np.max(np.abs((X @ fit.theta_prime)[live] - link) / (1.0 + np.abs(link))) < 1e-9

    def test_no_fit_below_the_symmetric_fit(self):
        # On this restart-sweep table the smoothed and theta = 0 starts reach
        # the iteration cap, and the climb from the KL fit stops on a flat
        # part of the lam < 0 tail at G2 6343.5, where s gives 91.7; theta = 0
        # is in the model.  (power(-2) does the same, at G2 7127.2.)
        counts = restart_table(7, 3, 3, 60, 0.3)
        with pytest.raises(FitError):
            fit_model(counts, ModelSpec("gs", power(-1.5)))

    def test_a_climb_below_the_symmetric_fit_is_named(self, monkeypatch):
        def below(space, pt, nvec):
            return pt, np.full(len(nvec), -1.0), np.zeros(len(nvec), dtype=int), [None] * len(nvec)

        monkeypatch.setattr(fitting, "_link_ascent", below)
        with pytest.raises(FitError, match="climb ended below the symmetric fit"):
            fit_model(anes_party_id(), ModelSpec("gs", kl()))

    def test_infeasible_line_search_is_named(self, monkeypatch):
        evaluate = LinkSpace.evaluate

        def failing(self, theta, held=None, start=None, holdable=None):
            if held is not None:  # a trial step of the line search
                raise InfeasibleParameterError("test")
            return evaluate(self, theta, held, start, holdable)

        monkeypatch.setattr(LinkSpace, "evaluate", failing)
        with pytest.raises(FitError, match="orbit normalizer is infeasible at every trial step"):
            fit_model(anes_party_id(), ModelSpec("gs", kl()))

    def test_identified_up_to_flat_directions(self):
        # one three-cell orbit carries all the mass: most of theta is
        # unidentified, yet the within-orbit fit is saturated
        shape = TableShape(3, 3)
        counts = np.zeros(27)
        counts[orbit_structure(shape).members[1]] = [5, 3, 1]
        for ff in (kl(), pearson()):
            fit = fit_model(CountTable(shape, counts), ModelSpec("gs", ff))
            assert fit.g2 == pytest.approx(0.0, abs=1e-9)


def test_link_fits_and_projection_are_warning_clean():
    rng = np.random.default_rng(7)  # a table on which the KKT path overflows expm1
    shape = TableShape(3, 3)
    sparse = CountTable(shape, rng.multinomial(60, rng.dirichlet(np.ones(27))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table in (sparse, anes_party_id()):
            for family in FAMILIES:
                for ff in LINKS + [power(2.0)]:
                    fit_model(table, ModelSpec(family, ff))
        for table in (sparse, anes_party_id()):
            for ff in LINKS + [power(2.0)]:
                decompose(table, ff)
        target = anes_party_id().smoothed_proportions()
        for ff in LINKS:
            iproject(ProjectionSpec(target, ff))
