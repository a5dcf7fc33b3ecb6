import numpy as np
import pytest

from fsym.datasets import anes_party_id
from fsym.design import cell_predictor, design_matrix, moment_matrix
from fsym.divergences import hellinger, kl, pearson, power
from fsym.fitting import (
    FitError,
    Constraint,
    InvalidFitError,
    ModelSpec,
    _lagrangian_curvature,
    _softmax,
    degrees_of_freedom,
    discrepancy_measure,
    fit_hlp,
    fit_model,
    fit_symmetry,
    g2,
    linear_coefficients,
    linkform_constraint,
    moment_constraint,
    potential_params,
    pvalue,
    symmetry_constraint,
    table1_df,
)
from fsym.tables import (
    CountTable,
    TableShape,
    all_cells,
    cell_index,
    conditional_within_orbit,
    orbit,
    orbit_structure,
    orbit_sums,
)

from conftest import random_count_table


def symmetric_counts(rng, shape, n=3000):
    """Counts whose table is exactly orbit-constant."""
    struct = orbit_structure(shape)
    per_orbit = rng.integers(1, 50, size=len(struct.members))
    counts = per_orbit[struct.orbit_id]
    return CountTable(shape, counts * 1.0)


class TestFitSymmetry:
    def test_orbit_average(self):
        shape = TableShape(3, 2)
        counts = np.zeros(9)
        # orbit {(1,2),(2,1)} gets 10 and 2; orbit {(1,3),(3,1)} gets 6 and 6
        counts[cell_index(shape, (1, 2))] = 10
        counts[cell_index(shape, (2, 1))] = 2
        counts[cell_index(shape, (1, 3))] = 6
        counts[cell_index(shape, (3, 1))] = 6
        counts[cell_index(shape, (1, 1))] = 4
        fit = fit_symmetry(CountTable(shape, counts))
        assert fit.mhat[cell_index(shape, (1, 2))] == pytest.approx(6.0)
        assert fit.mhat[cell_index(shape, (2, 1))] == pytest.approx(6.0)
        assert fit.mhat[cell_index(shape, (1, 1))] == pytest.approx(4.0)

    def test_already_symmetric_counts(self, rng):
        fit = fit_symmetry(symmetric_counts(rng, TableShape(3, 3)))
        assert fit.g2 == pytest.approx(0.0, abs=1e-12)

    def test_anes_reference(self):
        fit = fit_symmetry(anes_party_id())
        assert float(f"{fit.g2:.3g}") == 45.3
        assert fit.df == 17
        assert fit.pvalue < 0.001


class TestFitHlp:
    def test_empty_constraint_is_saturated(self, rng):
        counts = random_count_table(rng, TableShape(3, 2))
        empty = Constraint(dim=0, fun=lambda pi: np.zeros(0), jac=lambda pi: np.zeros((0, 9)))
        fit = fit_hlp(counts, empty)
        assert fit.g2 == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(fit.pihat.probs, counts.proportions().probs)

    def test_symmetry_equalities_match_closed_form(self, rng):
        shape = TableShape(3, 3)
        for _ in range(50):
            counts = random_count_table(rng, shape, n=400)
            generic = fit_hlp(counts, symmetry_constraint(shape))
            closed = fit_symmetry(counts)
            assert generic.g2 == pytest.approx(closed.g2, abs=1e-6)

    def test_unit_sum_is_exact(self, rng):
        counts = random_count_table(rng, TableShape(3, 3))
        fit = fit_model(counts, ModelSpec("gs", kl()))
        assert fit.pihat.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert fit.mhat.sum() == pytest.approx(counts.n, abs=1e-8)
        assert np.all(fit.mhat > 0)

    def test_nonconvergence_raises_with_trace(self, rng):
        counts = random_count_table(rng, TableShape(3, 3))
        with pytest.raises(FitError) as err:
            fit_model(counts, ModelSpec("gs", pearson()), max_iter=2)
        assert err.value.trace


class TestFitModelReferenceValues:
    """Goodness of fit on the bundled three-wave panel (known-good values)."""

    @pytest.mark.parametrize(
        "family,ff,g2_3sig,df",
        [
            ("me", None, 3.34, 2),
            ("ve", None, 9.89, 2),
            ("ce", None, 17.4, 2),
            ("gs", kl(), 15.5, 11),
            ("gs", pearson(), 13.7, 11),
            ("gs", hellinger(), 16.0, 11),
            ("els", kl(), 33.0, 13),
            ("ls", kl(), 41.5, 15),
        ],
    )
    def test_g2(self, family, ff, g2_3sig, df):
        fit = fit_model(anes_party_id(), ModelSpec(family, ff))
        assert float(f"{fit.g2:.3g}") == g2_3sig
        assert fit.df == df

    def test_me2_mle(self):
        # the exact constrained MLE, cross-checked against an independent
        # sequential-quadratic solver; prints as 31.5 at three significant figures
        fit = fit_model(anes_party_id(), ModelSpec("me2"))
        assert fit.g2 == pytest.approx(31.545, abs=2e-3)
        assert fit.df == 6
        assert fit.pvalue < 0.001

    def test_pvalues(self):
        t = anes_party_id()
        assert round(fit_model(t, ModelSpec("gs", kl())).pvalue, 3) == 0.162
        assert round(fit_model(t, ModelSpec("me")).pvalue, 3) == 0.188
        assert round(fit_model(t, ModelSpec("gs", pearson())).pvalue, 3) == 0.249


class TestLagrangianCurvature:
    @pytest.mark.parametrize(
        ("make", "shape"),
        [
            (lambda shape: linkform_constraint(shape, "gs", kl()), TableShape(3, 3)),
            (lambda shape: linkform_constraint(shape, "gs", pearson()), TableShape(3, 3)),
            (lambda shape: linkform_constraint(shape, "gs", hellinger()), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "ve"), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "ce"), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "me2"), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "ve"), TableShape(3, 4)),
            (lambda shape: moment_constraint(shape, "ce"), TableShape(3, 4)),
            (lambda shape: moment_constraint(shape, "me2"), TableShape(3, 4)),
        ],
        ids=["gs-kl", "gs-pearson", "gs-hellinger", "ve", "ce", "me2", "ve-3^4", "ce-3^4", "me2-3^4"],
    )
    def test_matches_finite_differences(self, rng, make, shape):
        con = make(shape)
        xi = rng.normal(size=shape.n_cells) * 0.3
        pi = _softmax(xi)
        mu = rng.normal(size=con.dim)
        H = np.atleast_2d(np.asarray(con.jac(pi), dtype=float))
        sig = np.diag(pi) - np.outer(pi, pi)
        T = _lagrangian_curvature(con, pi, mu, H, sig)

        def weighted(x):
            return float(mu @ con.fun(_softmax(x)))

        eps = 1e-4
        n = shape.n_cells
        fd = np.zeros((n, n))
        for a in range(n):
            ea = np.zeros(n)
            ea[a] = eps
            for b in range(a, n):
                eb = np.zeros(n)
                eb[b] = eps
                val = (
                    weighted(xi + ea + eb)
                    - weighted(xi + ea - eb)
                    - weighted(xi - ea + eb)
                    + weighted(xi - ea - eb)
                ) / (4 * eps * eps)
                fd[a, b] = fd[b, a] = val
        assert np.max(np.abs(T - fd)) < 1e-6


class TestModelStructure:
    def test_symmetric_counts_fit_every_family_perfectly(self, rng):
        counts = symmetric_counts(rng, TableShape(3, 3))
        for spec in [
            ModelSpec("s"),
            ModelSpec("me2"),
            ModelSpec("me"),
            ModelSpec("ve"),
            ModelSpec("ce"),
            ModelSpec("gs", kl()),
            ModelSpec("gs", pearson()),
            ModelSpec("ls", hellinger()),
        ]:
            fit = fit_model(counts, spec)
            assert fit.g2 == pytest.approx(0.0, abs=1e-7), spec.label

    @pytest.mark.parametrize("ff", [kl(), pearson(), hellinger(), power(0.5)], ids=lambda f: f.name)
    def test_nestedness_chain(self, rng, ff):
        shape = TableShape(3, 3)
        slack = 1e-6
        for _ in range(10):
            counts = random_count_table(rng, shape, n=600)
            g_s = fit_symmetry(counts).g2
            g_gs = fit_model(counts, ModelSpec("gs", ff)).g2
            g_els = fit_model(counts, ModelSpec("els", ff)).g2
            g_ls = fit_model(counts, ModelSpec("ls", ff)).g2
            assert g_s + slack >= g_ls >= g_els - slack
            assert g_els + slack >= g_gs >= -slack

    @pytest.mark.parametrize("ff", [kl(), pearson(), hellinger(), power(0.5)], ids=lambda f: f.name)
    def test_conditional_probability_identities(self, rng, ff):
        # the fitted table satisfies the family's comparison identity on
        # every orbit pair
        counts = random_count_table(rng, TableShape(3, 3), n=900)
        fit = fit_model(counts, ModelSpec("gs", ff))
        theta = potential_params(fit)
        cond = conditional_within_orbit(fit.pihat)
        shape = fit.shape
        for cell in all_cells(shape):
            i = cell_index(shape, cell)
            for other in orbit(cell):
                j = cell_index(shape, other)
                ci, cj = cond[i], cond[j]
                if ff.family == "kl":
                    assert ci / cj == pytest.approx(
                        theta[cell] / theta[other], abs=1e-8, rel=1e-8
                    )
                elif ff.family == "pearson":
                    assert (ci - cj) == pytest.approx(
                        theta[cell] - theta[other], abs=1e-8
                    )
                elif ff.family == "hellinger":
                    assert (ci**-0.5 - cj**-0.5) == pytest.approx(
                        theta[cell] - theta[other], abs=1e-8
                    )
                else:
                    lam = ff.lam
                    assert (ci**lam - cj**lam) == pytest.approx(
                        theta[cell] - theta[other], abs=1e-8
                    )

    def test_link_identity_constant_on_orbits(self, rng):
        # F(|D(i)| cond_i) differs from the recovered quadratic predictor by a
        # per-orbit constant
        counts = random_count_table(rng, TableShape(3, 3), n=900)
        for ff in (kl(), pearson()):
            fit = fit_model(counts, ModelSpec("gs", ff))
            alpha, B = linear_coefficients(fit)
            pred = cell_predictor(fit.shape, alpha, B)
            struct = orbit_structure(fit.shape)
            cond = conditional_within_orbit(fit.pihat)
            link = np.asarray(ff.F(struct.size_of_cell * cond))
            resid = link - pred
            for members in struct.members:
                assert np.ptp(resid[members]) < 1e-8

    def test_theta_prime_reproduces_link(self, rng):
        counts = random_count_table(rng, TableShape(3, 3), n=900)
        fit = fit_model(counts, ModelSpec("gs", kl()))
        ds = design_matrix(fit.shape, "gs")
        pi_s = orbit_sums(fit.shape, fit.pihat.probs) / orbit_structure(fit.shape).size_of_cell
        zeta = np.log(fit.pihat.probs / pi_s)
        assert np.max(np.abs(ds.X @ fit.theta_prime - zeta)) < 1e-8


class TestPotentialParams:
    def test_symmetric_fit_gives_unit_thetas(self, rng):
        counts = symmetric_counts(rng, TableShape(3, 3))
        fit = fit_model(counts, ModelSpec("gs", kl()))
        theta = potential_params(fit)
        assert all(abs(v - 1.0) < 1e-6 for v in theta.values())

    def test_reference_cells(self):
        fit = fit_model(anes_party_id(), ModelSpec("gs", kl()))
        theta = potential_params(fit)
        assert theta[(1, 1, 3)] == pytest.approx(0.0161, abs=5e-4)
        assert theta[(1, 3, 1)] == pytest.approx(0.0019, abs=5e-4)

    def test_requires_asymmetry_family(self):
        fit = fit_symmetry(anes_party_id())
        with pytest.raises(ValueError):
            potential_params(fit)


class TestDiscrepancyMeasures:
    def test_reference_pair(self):
        t = anes_party_id()
        a, b = (1, 1, 3), (1, 3, 1)
        assert discrepancy_measure(fit_model(t, ModelSpec("gs", kl())), a, b) == pytest.approx(8.27, abs=5e-3)
        assert discrepancy_measure(fit_model(t, ModelSpec("gs", pearson())), a, b) == pytest.approx(0.71, abs=5e-3)
        assert discrepancy_measure(fit_model(t, ModelSpec("gs", hellinger())), a, b) == pytest.approx(-1.88, abs=5e-3)

    def test_cells_must_share_an_orbit(self):
        fit = fit_model(anes_party_id(), ModelSpec("gs", kl()))
        with pytest.raises(ValueError):
            discrepancy_measure(fit, (1, 1, 3), (1, 2, 3))


class TestDegreesOfFreedom:
    def test_3x3x3_row(self):
        shape = TableShape(3, 3)
        expected = {"s": 17, "gs": 11, "els": 13, "ls": 15, "me2": 6, "me": 2, "ve": 2, "ce": 2}
        for family, df in expected.items():
            assert degrees_of_freedom(family, shape) == df

    def test_4x4x4_gs(self):
        assert table1_df("gs", 4, 3) == 64 - 20 - 6

    def test_formula_grid(self):
        import math

        for r in (2, 3, 4):
            for T in (2, 3, 4):
                L = math.comb(r + T - 1, T)
                assert table1_df("s", r, T) == r**T - L
                assert table1_df("gs", r, T) == r**T - L - (T * T + 3 * T - 6) // 2
                assert table1_df("els", r, T) == r**T - L - 2 * T + 2
                assert table1_df("ls", r, T) == r**T - L - T + 1
                assert table1_df("me2", r, T) == (T * T + 3 * T - 6) // 2
                assert table1_df("me", r, T) == T - 1
                assert table1_df("ve", r, T) == T - 1
                assert table1_df("ce", r, T) == (T * T - T - 2) // 2

    def test_negative_df_rejected(self):
        with pytest.raises(ValueError):
            degrees_of_freedom("gs", TableShape(2, 2))

    @pytest.mark.parametrize("T", [3, 4])
    def test_me2_on_two_category_tables(self, T):
        # Squared scores are affine in the scores when r = 2, so only
        # T - 1 + T(T-1)/2 - 1 of the difference rows are independent; every
        # fit must succeed on them and count them as its df.
        shape = TableShape(2, T)
        rank = np.linalg.matrix_rank(moment_matrix(shape))
        assert degrees_of_freedom("me2", shape) == rank == T - 2 + T * (T - 1) // 2
        assert table1_df("me2", 2, T) == (T * T + 3 * T - 6) // 2
        rng = np.random.default_rng(0)
        for _ in range(40):
            p = rng.dirichlet(np.ones(shape.n_cells))
            counts = CountTable(shape, rng.multinomial(30, p).astype(float))
            fit = fit_model(counts, ModelSpec("me2"))
            assert fit.df == rank
            assert np.max(np.abs(moment_matrix(shape) @ fit.pihat.probs)) < 1e-8

    def test_pvalue_bounds(self):
        assert pvalue(0.0, 5) == 1.0
        assert 0.0 <= pvalue(100.0, 5) <= 1.0
        with pytest.raises(ValueError):
            pvalue(-1.0, 5)


class TestG2:
    def test_zero_when_fitted_equals_observed(self, rng):
        counts = random_count_table(rng, TableShape(3, 2))
        assert g2(counts, counts.counts.copy()) == 0.0

    def test_zero_counts_contribute_nothing(self):
        shape = TableShape(2, 2)
        counts = CountTable(shape, [5, 0, 3, 2])
        mhat = np.array([4.0, 2.0, 2.0, 2.0])
        expected = 2 * (5 * np.log(5 / 4) + 3 * np.log(3 / 2) + 2 * np.log(1.0))
        assert g2(counts, mhat) == pytest.approx(expected, abs=1e-12)

    def test_invalid_fit(self):
        counts = CountTable(TableShape(2, 2), [5, 1, 3, 2])
        with pytest.raises(InvalidFitError):
            g2(counts, np.array([4.0, 0.0, 2.0, 2.0]))


class TestModelSpec:
    def test_asymmetry_requires_f(self):
        with pytest.raises(ValueError):
            ModelSpec("gs")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ModelSpec("quasi")

    def test_labels(self):
        assert ModelSpec("gs", kl()).label == "gs[kl]"
        assert ModelSpec("me2").label == "me2"
