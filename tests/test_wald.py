import numpy as np
import pytest

from fsym import fitting
from fsym.datasets import anes_party_id
from fsym.design import design_matrix, moment_matrix
from fsym.divergences import hellinger, kl, pearson, power
from fsym.fitting import FitError
from fsym.oracle import f_jacobian, orbit_averaging_matrix, sigma, wald_statistic
from fsym.tables import ProbTable, TableShape, symmetric_average
from fsym.wald import decompose

from conftest import random_prob_table

FFS = [kl(), pearson(), hellinger(), power(0.5)]


class TestSigma:
    def test_two_cell_example(self):
        shape = TableShape(2, 2)
        p = ProbTable(shape, [0.5, 0.5, 0.0, 0.0])
        block = sigma(p)[:2, :2]
        assert np.allclose(block, [[0.25, -0.25], [-0.25, 0.25]])

    def test_rows_sum_to_zero(self, rng):
        p = random_prob_table(rng, TableShape(3, 3))
        assert np.max(np.abs(sigma(p).sum(axis=1))) < 1e-14

    def test_positive_semidefinite(self, rng):
        p = random_prob_table(rng, TableShape(3, 3))
        eigenvalues = np.linalg.eigvalsh(sigma(p))
        assert eigenvalues.min() > -1e-12


class TestLinkJacobian:
    @pytest.mark.parametrize("ff", FFS, ids=lambda f: f.name)
    def test_matches_finite_differences(self, rng, ff):
        shape = TableShape(3, 3)
        p = random_prob_table(rng, shape, concentration=5.0)
        F = f_jacobian(p, ff)

        def link(v):
            from fsym.tables import orbit_structure, orbit_sums

            struct = orbit_structure(shape)
            ps = orbit_sums(shape, v) / struct.size_of_cell
            return np.asarray(ff.F(v / ps))

        eps = 1e-7
        for j in range(0, 27, 5):
            up = p.probs.copy()
            dn = p.probs.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (link(up) - link(dn)) / (2 * eps)
            assert np.max(np.abs(F[:, j] - fd)) < 1e-6

    @pytest.mark.parametrize("ff", FFS, ids=lambda f: f.name)
    def test_annihilates_the_table(self, rng, ff):
        # rows of the Jacobian are orthogonal to the table itself
        for _ in range(10):
            p = random_prob_table(rng, TableShape(3, 3))
            F = f_jacobian(p, ff)
            assert np.max(np.abs(F @ p.probs)) < 1e-10

    def test_symmetric_point_identity(self, rng):
        # at orbit-constant tables the weighted Jacobian is the centered
        # orbit-average projector scaled by f''(1) = 1
        shape = TableShape(3, 3)
        ds = design_matrix(shape, "gs")
        J = orbit_averaging_matrix(shape)
        for ff in FFS:
            p = symmetric_average(random_prob_table(rng, shape))
            H1 = ds.U.T @ f_jacobian(p, ff)
            lhs = H1 @ np.diag(p.probs)
            rhs = ds.U.T @ (np.eye(27) - J)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_interior_required(self):
        probs = np.zeros(27)
        probs[0] = 1.0
        with pytest.raises(ValueError):
            f_jacobian(ProbTable(TableShape(3, 3), probs), kl())


class TestWaldStatistic:
    def test_zero_hypothesis_value(self, rng):
        p = random_prob_table(rng, TableShape(3, 3))
        M = moment_matrix(p.shape)
        assert wald_statistic(np.zeros(6), M, p, 100.0) == 0.0

    def test_basis_invariance(self, rng):
        shape = TableShape(3, 3)
        ds = design_matrix(shape, "gs")
        p = random_prob_table(rng, shape, concentration=5.0)
        ff = kl()
        h = ds.U.T @ np.asarray(ff.F(p.probs / symmetric_average(p).probs))
        H = ds.U.T @ f_jacobian(p, ff)
        w = wald_statistic(h, H, p, 713.0)
        for _ in range(5):
            A = rng.normal(size=(11, 11))
            while abs(np.linalg.det(A)) < 1e-3:
                A = rng.normal(size=(11, 11))
            w_rotated = wald_statistic(A @ h, A @ H, p, 713.0)
            assert w_rotated == pytest.approx(w, abs=1e-8, rel=1e-8)

    def test_nonnegative(self, rng):
        shape = TableShape(3, 3)
        M = moment_matrix(shape)
        for _ in range(20):
            p = random_prob_table(rng, shape)
            w = wald_statistic(M @ p.probs, M, p, 500.0)
            assert w >= 0

    def test_duplicate_rows_take_ridge_path(self, rng):
        # an exactly singular middle matrix is regularized rather than fatal
        shape = TableShape(3, 3)
        M = moment_matrix(shape)
        p = random_prob_table(rng, shape)
        H = np.vstack([M, M[:1]])
        h = H @ p.probs
        w = wald_statistic(h, H, p, 500.0)
        assert np.isfinite(w) and w >= 0


class TestDecompose:
    def test_anes_report(self):
        report = decompose(anes_party_id(), kl())
        assert report.df_gs == 11 and report.df_me2 == 6 and report.df_s == 17
        assert report.w_gs > 0 and report.w_me2 > 0 and report.w_s > 0
        assert report.evaluation_point == "smoothed"  # the table has zero cells
        assert report.orthogonality_residual < 1e-10
        rows = {r.family: r for r in report.g2_partition}
        assert float(f"{rows['s'].g2:.3g}") == 45.3
        assert float(f"{rows['gs[kl]'].g2:.3g}") == 15.5
        assert float(f"{rows['me'].g2:.3g}") == 3.34
        assert float(f"{rows['ve'].g2:.3g}") == 9.89
        assert float(f"{rows['ce'].g2:.3g}") == 17.4
        # the likelihood-ratio additivity gap is reported, not asserted small
        assert report.g2_gap == pytest.approx(
            abs(rows["s"].g2 - rows["gs[kl]"].g2 - rows["me2"].g2), abs=1e-12
        )

    def test_symmetric_table_all_zero(self, rng):
        from test_fitting import symmetric_counts

        counts = symmetric_counts(rng, TableShape(3, 3))
        report = decompose(counts, kl())
        assert report.w_gs == pytest.approx(0.0, abs=1e-9)
        assert report.w_me2 == pytest.approx(0.0, abs=1e-9)
        assert report.w_s == pytest.approx(0.0, abs=1e-9)
        assert report.evaluation_point == "observed"
        for row in report.g2_partition:
            assert row.g2 == pytest.approx(0.0, abs=1e-7)

    def test_power_family_runs(self, rng):
        from conftest import random_count_table

        counts = random_count_table(rng, TableShape(3, 3), n=800)
        report = decompose(counts, power(0.5))
        assert report.w_s >= max(report.w_gs, report.w_me2) - 1e-9

    def test_partition_fits_stop_at_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        with pytest.raises(FitError, match="within 1 iterations"):
            decompose(anes_party_id(), kl())

    def test_orthogonality_residual_at_symmetric_tables(self, rng):
        shape = TableShape(3, 3)
        ds = design_matrix(shape, "gs")
        M = moment_matrix(shape)
        for ff in FFS:
            p = symmetric_average(random_prob_table(rng, shape))
            H1 = ds.U.T @ f_jacobian(p, ff)
            assert np.max(np.abs(H1 @ sigma(p) @ M.T)) < 1e-10


class TestAdditivityMonteCarlo:
    def test_median_relative_gap_under_symmetry(self, rng):
        # plug-in statistics at data simulated from a symmetric table with
        # large n: the decomposition identity holds asymptotically
        shape = TableShape(3, 3)
        base = symmetric_average(random_prob_table(rng, shape, concentration=10.0))
        ds = design_matrix(shape, "gs")
        M = moment_matrix(shape)
        ff = kl()
        gaps = []
        for _ in range(200):
            draws = rng.multinomial(100_000, base.probs)
            p = ProbTable(shape, (draws + 0.5) / (draws.sum() + 0.5 * 27))
            h1 = ds.U.T @ np.asarray(ff.F(p.probs / symmetric_average(p).probs))
            H1 = ds.U.T @ f_jacobian(p, ff)
            h2 = M @ p.probs
            w1 = wald_statistic(h1, H1, p, 100_000)
            w2 = wald_statistic(h2, M, p, 100_000)
            w3 = wald_statistic(
                np.concatenate([h1, h2]), np.vstack([H1, M]), p, 100_000
            )
            gaps.append(abs(w3 - w1 - w2) / w3)
        assert np.median(gaps) < 0.05
