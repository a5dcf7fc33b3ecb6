import numpy as np
import pytest

from fsym.design import design_matrix, moment_matrix, recover_coefficients
from fsym.divergences import divergence, hellinger, kl, pearson, power
from fsym.linkspace import LinkSpace
from fsym.projection import (
    InfeasibleParameterError,
    ProjectionError,
    ProjectionSpec,
    forward_model,
    iproject,
    normalize_gamma,
)
from fsym.tables import (
    ProbTable,
    TableShape,
    orbit,
    orbit_structure,
    orbit_sums,
    symmetric_average,
)

from conftest import random_prob_table

FFS = [kl(), pearson(), hellinger(), power(-0.5), power(0.5), power(1.0)]


def constraint_rows(shape):
    """Orbit-sum indicators stacked over the moment rows (the full linear set)."""
    struct = orbit_structure(shape)
    orbit_rows = np.zeros((len(struct.members), shape.n_cells))
    for o, members in enumerate(struct.members):
        orbit_rows[o, members] = 1.0
    return np.vstack([orbit_rows, moment_matrix(shape)])


def projected_gradient_minimizer(target, ff, steps=20000, lr=0.05):
    """Independent oracle: projected gradient descent on the divergence.

    The constraint set is affine, so each iterate is pulled back by the
    orthogonal projector onto the feasible subspace, with positivity kept by
    step halving.
    """
    shape = target.shape
    q = symmetric_average(target).probs
    A = constraint_rows(shape)
    # projector onto null(A)
    u, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    null_basis = vt[rank:].T
    P = null_basis @ null_basis.T
    pi = target.probs.copy()
    for _ in range(steps):
        grad = np.asarray(ff.F(pi / q))
        step = lr
        for _ in range(60):
            cand = pi - step * (P @ grad)
            if np.all(cand > 1e-12):
                break
            step *= 0.5
        if np.max(np.abs(cand - pi)) < 1e-14:
            break
        pi = cand
    return ProbTable(shape, pi / pi.sum())


def iterative_scaling_kl(target, tol=1e-11, sweeps=50000):
    """Classical cyclic minimum-information projection for the KL case.

    Each pass projects onto one linear constraint a'pi = b intersected with
    the simplex, which is the exponential tilt pi <- pi exp(tau a) / Z with
    tau solved by one-dimensional Newton on the tilted mean.
    """
    shape = target.shape
    q = symmetric_average(target).probs
    A = constraint_rows(shape)
    b = A @ target.probs
    pi = q.copy()
    for _ in range(sweeps):
        for row, goal in zip(A, b):
            tau = 0.0
            for _ in range(100):
                w = pi * np.exp(tau * row)
                z = w.sum()
                mean = (row @ w) / z
                var = (row**2 @ w) / z - mean**2
                if var <= 1e-18 or abs(mean - goal) < 1e-16:
                    break
                tau -= (mean - goal) / var
            pi = pi * np.exp(tau * row)
            pi /= pi.sum()
        if np.max(np.abs(A @ pi - b)) < tol:
            break
    return ProbTable(shape, pi)


class TestNormalizeGamma:
    def test_zero_parameters(self):
        shape = TableShape(3, 3)
        for ff in FFS:
            g = normalize_gamma(shape, orbit((1, 2, 3)), np.zeros(3), np.zeros((3, 3)), ff)
            assert g == pytest.approx(0.0, abs=1e-12)

    def test_singleton_orbit_exact(self, rng):
        shape = TableShape(3, 3)
        alpha = rng.normal(size=3) * 0.1
        B = rng.normal(size=(3, 3)) * 0.05
        B = 0.5 * (B + B.T)
        u = shape.score_of((2, 2, 2))
        expected = -(u @ alpha + u @ B @ u)
        got = normalize_gamma(shape, ((2, 2, 2),), alpha, B, kl())
        assert got == pytest.approx(expected, abs=1e-14)

    def test_orbit_mass_preserved(self, rng):
        # parameters kept small so every family's bounded inverse-link domain
        # still admits a normalizer
        shape = TableShape(3, 3)
        for ff in FFS:
            alpha = rng.normal(size=3) * 0.05
            B = rng.normal(size=(3, 3)) * 0.02
            B = 0.5 * (B + B.T)
            cells = orbit((1, 2, 3))
            gamma = normalize_gamma(shape, cells, alpha, B, ff)
            total = sum(
                float(ff.F_inv(shape.score_of(c) @ alpha + shape.score_of(c) @ B @ shape.score_of(c) + gamma))
                for c in cells
            )
            assert total == pytest.approx(len(cells), abs=1e-9)

    def test_infeasible_parameters_detected(self):
        # Pearson's inverse link domain is bounded below; a wildly spread
        # predictor leaves no room for a normalizer on a two-cell orbit
        shape = TableShape(3, 2)
        alpha = np.array([8.0, -8.0])
        with pytest.raises(InfeasibleParameterError):
            normalize_gamma(shape, orbit((1, 3)), alpha, np.zeros((2, 2)), pearson())


class TestIProject:
    def test_symmetric_target_is_fixed_point(self, rng):
        target = symmetric_average(random_prob_table(rng, TableShape(3, 3)))
        for ff in FFS:
            proj = iproject(ProjectionSpec(target, ff))
            assert np.max(np.abs(proj.probs - target.probs)) < 1e-9

    @pytest.mark.parametrize("ff", FFS, ids=lambda f: f.name)
    def test_constraints_and_linear_form(self, rng, ff):
        shape = TableShape(3, 3)
        ds = design_matrix(shape, "gs")
        M = moment_matrix(shape)
        for _ in range(5):
            target = random_prob_table(rng, shape, concentration=2.0)
            proj = iproject(ProjectionSpec(target, ff))
            assert np.max(np.abs(orbit_sums(shape, proj.probs) - orbit_sums(shape, target.probs))) < 1e-9
            assert np.max(np.abs(M @ (proj.probs - target.probs))) < 1e-9
            ps = symmetric_average(proj)
            assert np.max(np.abs(ds.U.T @ np.asarray(ff.F(proj.probs / ps.probs)))) < 1e-8

    def test_toy_pearson_matches_projected_gradient(self, rng):
        shape = TableShape(2, 2)
        target = ProbTable(shape, np.array([0.12, 0.28, 0.38, 0.22]))
        ours = iproject(ProjectionSpec(target, pearson()))
        oracle = projected_gradient_minimizer(target, pearson())
        assert np.max(np.abs(ours.probs - oracle.probs)) < 1e-6

    def test_3x3x3_kl_matches_iterative_scaling(self, rng):
        shape = TableShape(3, 3)
        target = random_prob_table(rng, shape, concentration=3.0)
        ours = iproject(ProjectionSpec(target, kl()))
        oracle = iterative_scaling_kl(target)
        assert np.max(np.abs(ours.probs - oracle.probs)) < 1e-6

    def test_divergence_no_larger_than_feasible_samples(self, rng):
        # global-minimum spot check against 100 random feasible tables
        shape = TableShape(3, 3)
        target = random_prob_table(rng, shape, concentration=4.0)
        ff = kl()
        proj = iproject(ProjectionSpec(target, ff))
        base = symmetric_average(proj)
        ours = divergence(ff, proj, base)
        A = constraint_rows(shape)
        u, s, vt = np.linalg.svd(A, full_matrices=True)
        null_basis = vt[int(np.sum(s > 1e-12)):].T
        count = 0
        while count < 100:
            w = rng.normal(size=null_basis.shape[1]) * 0.01
            cand = proj.probs + null_basis @ w
            if np.any(cand <= 0):
                continue
            count += 1
            q = ProbTable(shape, cand / cand.sum())
            assert divergence(ff, q, symmetric_average(q)) >= ours - 1e-12

    def test_round_trip_through_coefficients(self, rng):
        # fitted (alpha, B) from the projection output regenerate it exactly
        shape = TableShape(3, 3)
        ds = design_matrix(shape, "gs")
        for ff in (kl(), pearson(), power(0.5)):
            target = random_prob_table(rng, shape, concentration=2.0)
            proj = iproject(ProjectionSpec(target, ff))
            base = symmetric_average(proj)
            zeta = np.asarray(ff.F(proj.probs / base.probs))
            theta, *_ = np.linalg.lstsq(ds.X, zeta, rcond=None)
            alpha, B = recover_coefficients(ds, theta)
            rebuilt = forward_model(base, ff, alpha, B)
            assert np.max(np.abs(rebuilt.probs - proj.probs)) < 1e-8

    def test_forward_model_needs_symmetric_base(self, rng):
        p = random_prob_table(rng, TableShape(3, 3))
        with pytest.raises(ValueError):
            forward_model(p, kl(), np.zeros(3), np.zeros((3, 3)))

    def test_interior_target_required(self):
        probs = np.zeros(27)
        probs[:3] = 1 / 3
        with pytest.raises(ValueError):
            ProjectionSpec(ProbTable(TableShape(3, 3), probs), kl())


def skewed_targets():
    """Ten skewed 3^3 targets: Dirichlet(0.3) plus 1e-4 in every cell."""
    rng = np.random.default_rng(3)
    targets = []
    for _ in range(10):
        p = rng.dirichlet(np.full(27, 0.3)) + 1e-4
        targets.append(ProbTable(TableShape(3, 3), p / p.sum()))
    return targets


class TestIProjectBacktracking:
    @pytest.mark.parametrize(
        ("ff", "k", "cuts"),
        [(power(2.0), 3, ["infeasible"] * 3), (power(-1.5), 6, ["residual"] * 2)],
        ids=["power(2)-infeasible", "power(-1.5)-residual"],
    )
    def test_cut_steps_converge(self, monkeypatch, ff, k, cuts):
        # A trial that is cut is retried from the same normalizers (start),
        # so each evaluation at the previous one's start follows a cut: of
        # an infeasible trial, or of a feasible one whose residual is too big.
        evaluate = LinkSpace.evaluate
        calls = []

        def recording(self, theta, held=None, start=None, holdable=None):
            try:
                pt = evaluate(self, theta, held, start, holdable)
            except InfeasibleParameterError:
                calls.append((start, "infeasible"))
                raise
            calls.append((start, "residual"))
            return pt

        monkeypatch.setattr(LinkSpace, "evaluate", recording)
        target = skewed_targets()[k]
        proj = iproject(ProjectionSpec(target, ff))
        cut = [a[1] for a, b in zip(calls, calls[1:]) if b[0] is not None and b[0] is a[0]]
        assert cut == cuts
        shape = target.shape
        assert np.max(np.abs(orbit_sums(shape, proj.probs) - orbit_sums(shape, target.probs))) < 1e-9
        assert np.max(np.abs(moment_matrix(shape) @ (proj.probs - target.probs))) < 1e-9

    def test_singular_jacobian_is_named(self, monkeypatch):
        monkeypatch.setattr(LinkSpace, "slopes", lambda self, pt: np.zeros((27, self.X.shape[1])))
        with pytest.raises(ProjectionError, match="singular projection Jacobian") as err:
            iproject(ProjectionSpec(skewed_targets()[0], kl()))
        assert len(err.value.trace) == 1

    def test_no_convergence_is_named_with_its_trace(self):
        with pytest.raises(ProjectionError, match="no convergence in 500 iterations") as err:
            iproject(ProjectionSpec(skewed_targets()[1], pearson()))
        assert len(err.value.trace) == 500
