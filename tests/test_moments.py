import numpy as np
import pytest

from fsym.design import moment_matrix
from fsym.moments import (
    DegenerateMarginalError,
    constraint_jacobian,
    constraint_vector,
    moments,
)
from fsym.tables import ProbTable, TableShape, symmetric_average

from conftest import random_prob_table

MODELS = ("me", "ve", "ce", "me2")


class TestMoments:
    def test_uniform_table(self):
        shape = TableShape(3, 3)
        m = moments(ProbTable(shape, np.full(27, 1 / 27)))
        assert np.allclose(m.mu, 2.0)
        assert np.allclose(m.sigma2, 2.0 / 3.0)
        off = m.rho[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.0, atol=1e-12)

    def test_symmetric_table_exchangeable(self, rng):
        p = symmetric_average(random_prob_table(rng, TableShape(3, 3)))
        m = moments(p)
        assert np.ptp(m.mu) < 1e-12
        assert np.ptp(m.sigma2) < 1e-12
        off = m.rho[~np.eye(3, dtype=bool)]
        assert np.ptp(off) < 1e-12

    def test_direct_summation_oracle(self, rng):
        shape = TableShape(3, 3)
        p = random_prob_table(rng, shape)
        m = moments(p)
        # brute force over cells
        from fsym.tables import all_cells

        for s in range(3):
            mu = sum(
                shape.scores[cell[s] - 1] * p.probs[i]
                for i, cell in enumerate(all_cells(shape))
            )
            assert m.mu[s] == pytest.approx(mu, abs=1e-14)
        for s in range(3):
            for t in range(3):
                mixed = sum(
                    shape.scores[cell[s] - 1] * shape.scores[cell[t] - 1] * p.probs[i]
                    for i, cell in enumerate(all_cells(shape))
                )
                assert m.mixed[s, t] == pytest.approx(mixed, abs=1e-14)

    def test_degenerate_marginal(self):
        probs = np.zeros(9)
        probs[0] = 1.0  # all mass at (1,1): zero variances
        with pytest.raises(DegenerateMarginalError):
            moments(ProbTable(TableShape(3, 2), probs))


class TestConstraints:
    def test_dimensions_match_models(self, rng):
        want = {
            (3, "me"): 2, (3, "ve"): 2, (3, "ce"): 2, (3, "me2"): 6, (4, "me2"): 11, (4, "ce"): 5,
        }
        for (T, model), dim in want.items():
            p = random_prob_table(rng, TableShape(3, T))
            assert constraint_vector(model, p).shape == (dim,)
            assert constraint_jacobian(model, p).shape == (dim, 3**T)

    def test_symmetric_tables_satisfy_everything(self, rng):
        p = symmetric_average(random_prob_table(rng, TableShape(3, 3)))
        for model in MODELS:
            assert np.max(np.abs(constraint_vector(model, p))) < 1e-12

    def test_me2_rows_are_design_rows(self, rng):
        shape = TableShape(3, 3)
        p = random_prob_table(rng, shape)
        assert np.allclose(constraint_jacobian("me2", p), moment_matrix(shape))

    def test_me2_iff_me_ve_ce(self, rng):
        # both directions checked by fitting; here the pointwise implication:
        # a random table violating ME2 must violate at least one component
        shape = TableShape(3, 3)
        for _ in range(20):
            p = random_prob_table(rng, shape)
            me2 = np.max(np.abs(constraint_vector("me2", p)))
            parts = max(
                np.max(np.abs(constraint_vector(m, p))) for m in ("me", "ve", "ce")
            )
            if me2 > 1e-8:
                assert parts > 1e-10
            # and a symmetrized table satisfies all four
        sym = symmetric_average(random_prob_table(rng, shape))
        for model in MODELS:
            assert np.max(np.abs(constraint_vector(model, sym))) < 1e-12

    def test_me2_equivalence_through_fits(self, rng):
        # both directions of the equivalence, realized by actual fits: the
        # joint second-moment fit satisfies the three component hypotheses,
        # and the stacked component fit satisfies the joint one
        from fsym.fitting import Constraint, fit_hlp, fit_model, ModelSpec, moment_constraint
        from conftest import random_count_table

        shape = TableShape(3, 3)
        counts = random_count_table(rng, shape, n=800)
        joint = fit_model(counts, ModelSpec("me2"))
        for model in ("me", "ve", "ce"):
            assert np.max(np.abs(constraint_vector(model, joint.pihat))) < 1e-7

        parts = [moment_constraint(shape, m) for m in ("me", "ve", "ce")]
        stacked = Constraint(
            dim=sum(c.dim for c in parts),
            fun=lambda pi: np.concatenate([c.fun(pi) for c in parts]),
            jac=lambda pi: np.vstack([c.jac(pi) for c in parts]),
        )
        # pure Gauss-Newton here (the stack carries no curvature), so allow
        # the linear-rate tail more iterations
        fit = fit_hlp(counts, stacked, max_iter=800)
        assert np.max(np.abs(constraint_vector("me2", fit.pihat))) < 1e-7
        assert fit.g2 == pytest.approx(joint.g2, abs=1e-5)

    @pytest.mark.parametrize(
        ("model", "shape"),
        [(model, TableShape(3, T)) for T in (3, 4) for model in ("ve", "ce")],
        ids=["ve", "ce", "ve-3^4", "ce-3^4"],
    )
    def test_jacobian_matches_finite_differences(self, rng, model, shape):
        for _ in range(3):
            base = random_prob_table(rng, shape, concentration=5.0)
            J = constraint_jacobian(model, base)
            eps = 1e-6
            fd = np.zeros_like(J)
            for j in range(shape.n_cells):
                up = base.probs.copy()
                dn = base.probs.copy()
                up[j] += eps
                dn[j] -= eps
                # evaluate off the simplex on purpose: the Jacobian is of the
                # raw coordinate map
                fup = _raw_constraint(model, shape, up)
                fdn = _raw_constraint(model, shape, dn)
                fd[:, j] = (fup - fdn) / (2 * eps)
            assert np.max(np.abs(J - fd)) < 1e-6


def _raw_constraint(model, shape, probs):
    """Constraint evaluated without renormalizing, for differentiation."""
    import fsym.design as D

    svecs = np.column_stack([D.score_vector(shape, h) for h in range(1, shape.T + 1)])
    mu = svecs.T @ probs
    mixed = svecs.T @ (svecs * probs[:, None])
    sigma2 = np.diag(mixed) - mu**2
    if model == "ve":
        return sigma2[:-1] - sigma2[1:]
    sd = np.sqrt(sigma2)
    chain = D.pair_chain(shape.T)
    rho = np.array(
        [(mixed[s - 1, t - 1] - mu[s - 1] * mu[t - 1]) / (sd[s - 1] * sd[t - 1]) for s, t in chain]
    )
    return rho[:-1] - rho[1:]
