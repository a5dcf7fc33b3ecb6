import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fsym import fitting, tilted
from fsym.datasets import anes_party_id
from fsym.design import cell_predictor, design_matrix, moment_basis, moment_matrix, score_matrix
from fsym.divergences import hellinger, kl, pearson, power
from fsym.fitting import (
    FitError,
    InvalidFitError,
    ModelSpec,
    degrees_of_freedom,
    discrepancy_measure,
    fit_model,
    fit_symmetry,
    g2,
    linear_coefficients,
    potential_params,
    pvalue,
    table1_df,
)
from fsym.moments import _constraint_jet
from fsym.oracle import (
    Constraint,
    _lagrangian_curvature,
    _softmax,
    fit_hlp,
    linkform_constraint,
    moment_constraint,
    symmetry_constraint,
)
from fsym.tables import (
    CountTable,
    DegenerateOrbitError,
    TableShape,
    all_cells,
    cell_index,
    conditional_within_orbit,
    orbit,
    orbit_structure,
    orbit_sums,
)

from conftest import (
    ladder_table, moment_certificate, random_count_table, restart_table, restart_tables,
)


def dual_of(counts):
    """The ve/ce dual of a table that ``tilted.fit`` hands to both phases."""
    return tilted.TiltedDual(counts.counts, moment_basis(counts.shape))


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

    def test_nonconvergence_raises_with_trace(self, rng, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITER", 2)
        counts = random_count_table(rng, TableShape(3, 3))
        with pytest.raises(FitError) as err:
            fit_model(counts, ModelSpec("gs", pearson()))
        assert err.value.trace

    def test_me_reaches_a_certified_likelihood(self):
        """me maximizes a concave likelihood under linear constraints, so any
        feasible table bounds its G2 from above.  On this restart-sweep table
        SLSQP finds one that gives zero-count cells mass, with G2 about 445;
        fit_hlp holds every zero cell near 0 and stops at about 551."""
        from scipy.optimize import minimize

        counts = restart_table(5, 3, 3, 500, 0.3)
        nvec, N = counts.counts, counts.shape.n_cells
        pos, w = nvec > 0, nvec / counts.n
        scores = score_matrix(counts.shape)
        A = np.vstack([np.ones(N), (scores[:, 1:] - scores[:, :1]).T])  # unit sum, equal means
        b = np.zeros(len(A))
        b[0] = 1.0
        res = minimize(
            lambda p: -w[pos] @ np.log(p[pos]),
            np.full(N, 1.0 / N),
            jac=lambda p: np.where(pos, -w / np.where(pos, p, 1.0), 0.0),
            method="SLSQP",
            bounds=[(1e-12 if k else 0.0, 1.0) for k in pos],
            constraints=[dict(type="eq", fun=lambda p: A @ p - b, jac=lambda p: A)],
            options=dict(maxiter=1000, ftol=1e-14),
        )
        if not (np.max(np.abs(A @ res.x - b)) < 1e-9 and res.x.min() >= 0):
            # not the expected failure, so not absorbed by the xfail mark
            raise RuntimeError("the SLSQP certificate is not feasible to 1e-9")
        certificate = g2(counts, counts.n * res.x)
        fit = fit_model(counts, ModelSpec("me"))
        assert fit.g2 <= certificate + 1e-6


class TestMomentFits:
    """The moment families through the tilted-multinomial dual, checked by
    their certificate (``moment_certificate``) and against the KKT oracle."""

    @pytest.mark.parametrize(
        "seed,r,T,n,g2_ref",
        [(3, 2, 3, 500, 332.907378), (7, 2, 3, 60, 116.244439),
         (7, 2, 3, 500, 563.043186), (8, 3, 4, 60, 57.530889)],
        ids=["s3-2^3-n500", "s7-2^3-n60", "s7-2^3-n500", "s8-3^4-n60"],
    )
    def test_me2_where_the_kkt_fitter_fails(self, seed, r, T, n, g2_ref):
        # fit_hlp raises FitError on these Dirichlet(0.3) sweep tables
        counts = restart_table(seed, r, T, n, 0.3)
        fit = fit_model(counts, ModelSpec("me2"))
        assert moment_certificate(counts, "me2", fit.pihat.probs) == []
        assert fit.g2 == pytest.approx(g2_ref, abs=1e-5)

    @pytest.mark.parametrize(
        "seed,n,c,g2_ref", [(4, 60, 0.3, 33.598886), (8, 500, 1.0, 13.471730)]
    )
    def test_two_category_ve_takes_the_best_branch(self, seed, n, c, g2_ref):
        # equal binary variances allow equal means or mirrored ones; a local
        # fit from the observed table ends on the worse branch here
        counts = restart_table(seed, 2, 3, n, c)
        fit = fit_model(counts, ModelSpec("ve"))
        assert moment_certificate(counts, "ve", fit.pihat.probs) == []
        assert fit.g2 == pytest.approx(g2_ref, abs=1e-5)

    @pytest.mark.parametrize(
        "seed,r,T,n,model,oracle_g2,g2_ref",
        [(3, 2, 3, 500, "ce", 339.884621, 316.904995124),
         (6, 2, 3, 60, "ce", 22.722871, 22.722871327),
         (7, 2, 3, 60, "ce", 32.373528, 32.373527638),
         (7, 2, 3, 500, "ce", 20.682673, 20.682673240),
         (5, 3, 4, 60, "ve", 17.571041, 17.571041286),
         (1, 2, 4, 500, "ce", 408.972053, 408.972052801),
         (3, 2, 4, 500, "ce", 481.293324, 413.120030405),
         (1, 2, 5, 60, "ce", 36.773963, 36.773963354),
         (7, 2, 5, 60, "ce", 70.196010, 61.213460652)],
        ids=["ce-s3-2^3-n500", "ce-s6-2^3-n60", "ce-s7-2^3-n60", "ce-s7-2^3-n500", "ve-s5-3^4-n60",
             "ce-s1-2^4-n500", "ce-s3-2^4-n500", "ce-s1-2^5-n60", "ce-s7-2^5-n60"],
    )
    def test_profile_fit_on_faces(self, seed, r, T, n, model, oracle_g2, g2_ref):
        # Dirichlet(0.3) tables whose observed rows do not span the moment
        # coordinates, so that the profile likelihood has kinks; with two
        # categories the squared scores alone leave them short of spanning
        if (r, T) in ((2, 3), (3, 4)):
            counts = restart_table(seed, r, T, n, 0.3)
        else:  # a shape the restart sweep does not draw: one table drawn as it draws
            rng, shape = np.random.default_rng(seed), TableShape(r, T)
            probs = rng.dirichlet(np.full(shape.n_cells, 0.3))
            counts = CountTable(shape, rng.multinomial(n, probs))
        fit = fit_model(counts, ModelSpec(model))
        assert moment_certificate(counts, model, fit.pihat.probs) == []
        assert fit.g2 <= oracle_g2 + 1e-6
        assert fit.g2 == pytest.approx(g2_ref, rel=1e-9)

    def test_sweep_is_certified_and_never_above_the_oracle(self):
        checked = 0
        for seed in (1, 2):
            for r, T in ((2, 3), (3, 3), (4, 3), (3, 4)):
                for n in (60, 500):
                    for c in (1.0, 0.3):
                        counts = restart_table(seed, r, T, n, c)
                        for model in ("me", "ve", "ce", "me2"):
                            fit = fit_model(counts, ModelSpec(model))
                            label = f"{model} seed {seed} {r}^{T} n={n} c={c}"
                            assert moment_certificate(counts, model, fit.pihat.probs) == [], label
                            try:
                                oracle = fit_hlp(counts, moment_constraint(counts.shape, model))
                            except FitError:
                                continue
                            checked += 1
                            assert fit.g2 <= oracle.g2 + 1e-6, label
        assert checked >= 120

    @pytest.mark.parametrize("r", [3, 4])
    def test_ce_with_two_variables_is_saturated(self, rng, r):
        # one pair of variables leaves no correlations to equate (df 0)
        counts = random_count_table(rng, TableShape(r, 2), n=200)
        fit = fit_model(counts, ModelSpec("ce"))
        assert fit.df == 0 and fit.iterations == 0
        assert fit.g2 == pytest.approx(0.0, abs=1e-10)
        assert np.array_equal(fit.pihat.probs, counts.proportions().probs)

    def test_iteration_cap_keeps_the_dual_trace(self, monkeypatch):
        # the panel's ce fit takes 5 SQP steps; the cap also reaches its dual solves
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        with pytest.raises(FitError, match="no certificate within 1 dual steps") as err:
            fit_model(anes_party_id(), ModelSpec("ce"))
        assert isinstance(err.value.__cause__, tilted.CertificateError)
        assert err.value.trace and err.value.trace == err.value.__cause__.trace

    def test_panel_zero_cells_are_exact(self):
        # only me2 gives a sampling zero mass: cell 6 = (1, 3, 1)
        counts = anes_party_id()
        zero = np.flatnonzero(counts.counts == 0)
        for model in ("me", "ve", "ce", "me2"):
            fit = fit_model(counts, ModelSpec(model))
            assert fit.iterations <= 10, model
            expected = [0.000679 if (model == "me2" and i == 6) else 0.0 for i in zero]
            assert fit.pihat.probs[zero] == pytest.approx(expected, abs=5e-7), model
            assert moment_certificate(counts, model, fit.pihat.probs) == [], model

    def test_ce_where_the_merit_cannot_resolve_the_last_gain(self):
        # n = 933,120 on 6^6: |merit| is about 8e6, so a predicted gain of
        # 1e-8 is below its rounding and the SQP's last step is taken as it
        # is; fit_model finishes this table by the KKT Newton phase instead
        counts = ladder_table(1, 6, 6)
        tilt, steps = tilted._profile_fit(counts, dual_of(counts), "ce", fitting.MAX_ITER,
                                          fitting.TOL_CONSTRAINT, fitting.TOL_LOGLIK)
        assert g2(counts, counts.n * tilt.probs) == pytest.approx(874.689212627, rel=1e-9)
        assert steps == 4
        assert moment_certificate(counts, "ce", tilt.probs) == []
        fit = fit_model(counts, ModelSpec("ce"))
        assert fit.g2 == pytest.approx(874.689212627, rel=1e-9)
        assert moment_certificate(counts, "ce", fit.pihat.probs) == []

    @pytest.mark.parametrize("model", ["me2", "ce"])
    def test_memory_is_linear_in_the_cells(self, model):
        """On a 5^5 ``ladder_table`` the fit's traced peak stays below half
        of one 3125 x 3125 float64 array."""
        counts = ladder_table(1, 5, 5)
        tracemalloc.start()
        try:
            fit = fit_model(counts, ModelSpec(model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert moment_certificate(counts, model, fit.pihat.probs) == []


class TestKKTPhase:
    """ve and ce by Newton's method on their joint KKT system
    (``tilted._kkt_fit``), against the profile SQP (``tilted._profile_fit``)
    that ``fit_model`` runs wherever the Newton phase hands over."""

    ARGS = (fitting.MAX_ITER, fitting.TOL_CONSTRAINT, fitting.TOL_LOGLIK)

    def finishes_as_the_sqp(self, counts, model):
        """Whether the Newton phase finishes; where it does, its G2 is the
        SQP's to 1e-9 and its table is certified."""
        trace = []
        done = tilted._kkt_fit(counts, dual_of(counts), model, *self.ARGS, trace)
        if done is None:
            assert trace[-1][1] == "handover"
            return False
        tilt, steps = done
        assert [record[-1] for record in trace] == ["kkt"] * (steps + 1)
        sqp, _ = tilted._profile_fit(counts, dual_of(counts), model, *self.ARGS)
        assert g2(counts, counts.n * tilt.probs) == pytest.approx(
            g2(counts, counts.n * sqp.probs), rel=1e-9)
        assert moment_certificate(counts, model, tilt.probs) == []
        return True

    @pytest.mark.parametrize("model", ["ve", "ce"])
    def test_panel_and_ladder_tables(self, model):
        tables = [anes_party_id()] + [
            ladder_table(seed, r, T) for seed in (1, 7) for r, T in ((4, 5), (3, 6), (3, 5))]
        for counts in tables:
            assert self.finishes_as_the_sqp(counts, model), counts.shape

    def test_restart_tables(self):
        # 117 of the 192 fits finish; 73 of the others meet a zero cell's face
        finished = 0
        for seed in range(1, 9):
            for (r, T, n, c), counts in restart_tables(seed):
                if r >= 3:
                    finished += sum(self.finishes_as_the_sqp(counts, m) for m in ("ve", "ce"))
        assert finished >= 100

    @staticmethod
    def constant_margin():
        """A 3^3 table whose first variable always takes category 2."""
        counts = np.zeros(27)
        first = np.indices((3, 3, 3))[0].ravel()
        counts[first == 1] = np.random.default_rng(3).integers(1, 20, 9)
        return CountTable(TableShape(3, 3), counts)

    @pytest.mark.parametrize("table,model,reason", [
        (lambda: restart_table(5, 3, 4, 60, 0.3), "ve", "face"),
        (constant_margin, "ce", "degenerate"),
        (lambda: restart_table(3, 2, 3, 500, 0.3), "ce", "span"),
    ], ids=["face", "degenerate", "span"])
    def test_a_hand_over_keeps_the_sqp_bits(self, table, model, reason):
        counts = table()
        trace = []
        assert tilted._kkt_fit(counts, dual_of(counts), model, *self.ARGS, trace) is None
        assert trace[-1] == (0, "handover", reason)
        tilt, steps = tilted._profile_fit(counts, dual_of(counts), model, *self.ARGS)
        fit = fit_model(counts, ModelSpec(model))
        assert np.array_equal(fit.pihat.probs, tilt.probs)
        assert fit.iterations == steps

    def test_a_fit_error_shows_both_phases(self, monkeypatch):
        # the panel's ce fit takes 6 Newton steps: at the cap of 2 it hands
        # over, and the SQP then stops at the same cap
        monkeypatch.setattr(fitting, "MAX_ITER", 2)
        with pytest.raises(FitError) as err:
            fit_model(anes_party_id(), ModelSpec("ce"))
        trace = err.value.trace
        assert [record[-1] for record in trace[:3]] == ["kkt"] * 3
        assert [record[0] for record in trace[:3]] == [0, 1, 2]
        assert trace[3] == (2, "handover", "cap")
        assert len(trace) > 4 and trace == err.value.__cause__.trace


class TestWarmStart:
    """A tilt carries its dual's slacks, masses and Hessian at its point, and a
    solve of that same dual warm-started there takes them instead of
    recomputing them."""

    @staticmethod
    def problems():
        """(counts, G, b1, b2) on the panel: the ve/ce profile dual (observed
        rows that span, no zero cell held) and the me2 dual (cell 6 held)."""
        counts = anes_party_id()
        F = moment_basis(counts.shape)
        x = F.T @ counts.proportions().probs
        yield counts.counts, F, x + 1e-3, x - 2e-3
        A = _constraint_jet("me2", counts.shape, x)[1]
        yield counts.counts, F @ A.T, np.zeros(len(A)), np.full(len(A), 1e-3)

    @staticmethod
    def solve(dual, b, start=None):
        return dual.solve(b, start, max_iter=50, tol=1e-12)

    @staticmethod
    def same(a, b):
        return a.iterations == b.iterations and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("w", "probs", "curvature"))

    def test_the_carried_point_gives_the_same_bits(self):
        held = []
        for nvec, G, b1, b2 in self.problems():
            dual = tilted.TiltedDual(nvec, G)
            first = self.solve(dual, b1)
            assert first.point[0] is dual
            held.append(first.active)
            assert self.same(self.solve(dual, b2, first),
                             self.solve(dual, b2, replace(first, point=None)))
        assert held == [[], [6]]

    def test_a_point_of_another_dual_is_never_taken(self):
        for nvec, G, b1, b2 in self.problems():
            dual, twin = tilted.TiltedDual(nvec, G), tilted.TiltedDual(nvec, G)
            first = self.solve(dual, b1)
            s_obs, p_obs, H = first.point[1:]
            wrong = replace(first, point=(dual, s_obs, p_obs * 1.001, 2.0 * H))
            cold = replace(first, point=None)
            # the same dual takes the (here wrong) point, a twin does not
            assert not self.same(self.solve(dual, b2, wrong), self.solve(dual, b2, cold))
            assert self.same(self.solve(twin, b2, wrong), self.solve(twin, b2, cold))


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
        """The exact constrained MLE, cross-checked against an independent
        sequential-quadratic solver; prints as 31.5 at three significant
        figures.  It gives the sampling zero at cell 6 = (1, 3, 1) the mass
        0.000679; the fit on the observed support, with all three sampling
        zeros kept at 0, has G2 = 31.578, which prints as the published 31.6."""
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
            (lambda shape: linkform_constraint(shape, "gs", power(2.0)), TableShape(3, 3)),
            (lambda shape: linkform_constraint(shape, "ls", power(1.5)), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "ve"), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "ce"), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "me2"), TableShape(3, 3)),
            (lambda shape: moment_constraint(shape, "ve"), TableShape(3, 4)),
            (lambda shape: moment_constraint(shape, "ce"), TableShape(3, 4)),
            (lambda shape: moment_constraint(shape, "me2"), TableShape(3, 4)),
            (lambda shape: moment_constraint(shape, "ce"), TableShape(4, 5)),
            (lambda shape: moment_constraint(shape, "ve"), TableShape(3, 6)),
        ],
        ids=[
            "gs-kl", "gs-pearson", "gs-hellinger", "gs-power(2)", "ls-power(1.5)",
            "ve", "ce", "me2", "ve-3^4", "ce-3^4", "me2-3^4", "ce-4^5", "ve-3^6",
        ],
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

        n = shape.n_cells
        # every pair of cells on the small shapes; on the benchmark's ladder
        # shapes, where that takes minutes, three random rows in full, with a
        # wider step: there the difference's rounding error, which grows as
        # 1 / eps^2, reaches 1e-6 at eps = 1e-4 and is 1e-8 at eps = 1e-3
        full = n <= 81
        eps = 1e-4 if full else 1e-3
        rows = np.arange(n) if full else rng.choice(n, 3, replace=False)
        fd = np.zeros((n, n))
        for a in rows:
            ea = np.zeros(n)
            ea[a] = eps
            for b in range(a if full else 0, n):
                eb = np.zeros(n)
                eb[b] = eps
                val = (
                    weighted(xi + ea + eb)
                    - weighted(xi + ea - eb)
                    - weighted(xi - ea + eb)
                    + weighted(xi - ea - eb)
                ) / (4 * eps * eps)
                fd[a, b] = fd[b, a] = val
        assert np.max(np.abs(T - fd)[rows]) < 1e-6


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

    def test_requires_recovered_parameters(self):
        fit = fit_model(anes_party_id(), ModelSpec("gs", kl()))
        with pytest.raises(ValueError, match="no recovered parameters"):
            linear_coefficients(replace(fit, theta_prime=None))


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

    def test_requires_an_f_function(self):
        with pytest.raises(ValueError, match="no f-function"):
            discrepancy_measure(fit_symmetry(anes_party_id()), (1, 1, 3), (1, 3, 1))

    def test_orbit_without_fitted_mass_is_refused(self):
        table = anes_party_id()
        empty = orbit_structure(table.shape).members[1]
        counts = table.counts.copy()
        counts[empty] = 0
        fit = fit_model(CountTable(table.shape, counts), ModelSpec("gs", kl()))
        cells = list(all_cells(table.shape))
        with pytest.raises(DegenerateOrbitError, match="zero fitted probability"):
            discrepancy_measure(fit, cells[empty[0]], cells[empty[1]])


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
