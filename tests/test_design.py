import numpy as np
import pytest

from fsym.design import (
    ConfigurationError,
    cell_predictor,
    design_matrix,
    family_d2,
    independent_moment_rows,
    moment_basis,
    moment_matrix,
    n_offdiag,
    pair_chain,
    product_index,
    recover_coefficients,
    score_matrix,
    score_vector,
    symmetry_indicator,
)
from fsym.tables import TableShape, all_cells, cell_index, orbit, orbit_structure

SHAPES = [TableShape(3, 2), TableShape(3, 3), TableShape(4, 3), TableShape(3, 4), TableShape(4, 4)]


class TestScoreVectors:
    def test_kronecker_expansion_2x2(self):
        shape = TableShape(2, 2)
        assert np.allclose(score_vector(shape, 1), [1, 1, 2, 2])
        assert np.allclose(score_vector(shape, 2), [1, 2, 1, 2])

    def test_entry_matches_cell_coordinate(self):
        shape = TableShape(3, 3)
        s2 = score_vector(shape, 2)
        idx = cell_index(shape, (1, 3, 2))
        assert s2[idx] == shape.scores[3 - 1]
        # every cell, every variable
        for idx, cell in enumerate(all_cells(shape)):
            for h in range(1, 4):
                assert score_vector(shape, h)[idx] == shape.scores[cell[h - 1] - 1]

    def test_bad_variable_index(self):
        with pytest.raises(ValueError):
            score_vector(TableShape(3, 3), 4)

    def test_moment_basis_holds_scores_and_products(self):
        shape = TableShape(3, 4, (0.0, 1.0, 3.0))
        F = moment_basis(shape)
        s = np.column_stack([score_vector(shape, h) for h in range(1, 5)])
        assert F.shape == (81, 4 + 10)
        assert np.array_equal(score_matrix(shape), s)
        idx = product_index(4)
        for a in range(4):
            for b in range(4):
                assert np.array_equal(F[:, idx[a, b]], s[:, a] * s[:, b])

    def test_built_once_and_read_only(self):
        shape = TableShape(3, 3)
        for build in (moment_basis, moment_matrix, independent_moment_rows):
            assert build(shape) is build(TableShape(3, 3))
            with pytest.raises(ValueError):
                build(shape)[0] = 0


class TestDifferenceVectors:
    # moment_matrix rows: s_h - s_{h+1} (h = 1, 2), s_h^2 - s_{h+1}^2 (rows 2, 3)
    # and the pair-chain product differences (rows 4, 5)

    def test_pair_chain_t3(self):
        assert pair_chain(3) == [(1, 2), (1, 3), (2, 3)]
        assert n_offdiag(3) == 2

    def test_rows_are_the_difference_vectors(self):
        shape = TableShape(3, 3)
        s = [score_vector(shape, h) for h in (1, 2, 3)]
        M = moment_matrix(shape)
        assert np.array_equal(M[0], s[0] - s[1])
        assert np.array_equal(M[3], s[1] ** 2 - s[2] ** 2)
        assert np.array_equal(M[5], s[0] * s[2] - s[1] * s[2])

    def test_first_interaction_difference(self):
        shape = TableShape(3, 3)
        want = score_vector(shape, 1) * score_vector(shape, 2) - score_vector(
            shape, 1
        ) * score_vector(shape, 3)
        assert np.allclose(moment_matrix(shape)[4], want)

    def test_delta1_vanishes_on_equal_coordinates(self):
        shape = TableShape(3, 3)
        d = moment_matrix(shape)[1]  # s_2 - s_3
        for idx, cell in enumerate(all_cells(shape)):
            if cell[1] == cell[2]:
                assert d[idx] == 0

    def test_column_sums_vanish_for_equal_spacing(self):
        assert np.max(np.abs(moment_matrix(TableShape(3, 3)).sum(axis=1))) < 1e-12

    def test_independent_rows(self):
        assert np.array_equal(independent_moment_rows(TableShape(3, 3)), np.arange(6))
        assert np.array_equal(independent_moment_rows(TableShape(4, 4)), np.arange(11))
        # two categories: the squared-score differences repeat s_h - s_{h+1}
        assert np.array_equal(independent_moment_rows(TableShape(2, 3)), [0, 1, 4, 5])
        for T in (3, 4):
            M = moment_matrix(TableShape(2, T))
            rows = independent_moment_rows(TableShape(2, T))
            assert len(rows) == np.linalg.matrix_rank(M) == np.linalg.matrix_rank(M[rows])


class TestDesignSystem:
    def test_gs_3x3x3_dimensions(self):
        ds = design_matrix(TableShape(3, 3), "gs")
        assert ds.X.shape == (27, 16)
        assert ds.U.shape == (27, 11)
        assert ds.d2 == 6

    def test_ls_and_els_3x3x3_dimensions(self):
        assert design_matrix(TableShape(3, 3), "ls").X.shape == (27, 12)
        assert design_matrix(TableShape(3, 3), "ls").U.shape == (27, 15)
        assert design_matrix(TableShape(3, 3), "els").X.shape == (27, 14)
        assert design_matrix(TableShape(3, 3), "els").U.shape == (27, 13)

    def test_gs_4x4x4_complement(self):
        ds = design_matrix(TableShape(4, 3), "gs")
        assert ds.U.shape[1] == 64 - 20 - 6  # 38

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("family", ["gs", "els", "ls"])
    def test_orthogonality_and_rank(self, shape, family):
        ds = design_matrix(shape, family)
        L = family_d2(family, shape.T) + shape.n_orbits
        assert ds.X.shape[1] == L
        assert ds.d1 == ds.U.shape[1]
        assert np.max(np.abs(ds.U.T @ ds.X)) < 1e-10
        assert np.linalg.matrix_rank(ds.X) == L
        assert np.linalg.matrix_rank(ds.U) == shape.n_cells - L

    def test_column_space_nesting(self):
        shape = TableShape(3, 3)
        spaces = [design_matrix(shape, fam).X for fam in ("ls", "els", "gs")]
        for small, big in zip(spaces, spaces[1:]):
            q, _ = np.linalg.qr(big)
            resid = small - q @ (q.T @ small)
            assert np.max(np.abs(resid)) < 1e-10

    def test_symmetry_indicator(self):
        shape = TableShape(3, 3)
        xs = symmetry_indicator(shape)
        assert np.array_equal(xs.sum(axis=1), np.ones(27))
        struct = orbit_structure(shape)
        assert np.array_equal(xs.sum(axis=0), [len(m) for m in struct.members])

    def test_degenerate_scores_r2_rejected(self):
        # with two equally spaced categories the squared scores are affine in
        # the scores, so the quadratic block cannot have full rank
        with pytest.raises(ConfigurationError, match="beta_diag"):
            design_matrix(TableShape(2, 3), "gs")

    def test_moment_matrix_rows(self):
        shape = TableShape(3, 3)
        M = moment_matrix(shape)
        assert M.shape == (6, 27)
        ds = design_matrix(shape, "gs")
        assert np.allclose(M.T, ds.X[:, :6])


class TestRecoverCoefficients:
    def test_zero_maps_to_zero(self):
        ds = design_matrix(TableShape(3, 3), "gs")
        alpha, B = recover_coefficients(ds, np.zeros(ds.n_columns))
        assert np.allclose(alpha, 0) and np.allclose(B, 0)

    def test_telescoping_example(self):
        ds = design_matrix(TableShape(3, 3), "gs")
        theta = np.zeros(ds.n_columns)
        theta[0], theta[1] = 1.0, 0.0  # alpha' = (1, 0)
        alpha, _ = recover_coefficients(ds, theta)
        assert np.allclose(alpha, [1.0, -1.0, 0.0])

    def test_normalization(self, rng):
        ds = design_matrix(TableShape(3, 3), "gs")
        alpha, B = recover_coefficients(ds, rng.normal(size=ds.n_columns))
        assert alpha[-1] == 0
        assert B[-1, -1] == 0
        assert B[-2, -1] == 0
        assert np.allclose(B, B.T)

    def test_predictor_difference_identity(self, rng):
        # brute force over all orbit pairs: the design predictor differences
        # must match the recovered quadratic-form differences
        shape = TableShape(3, 3)
        ds = design_matrix(shape, "gs")
        for _ in range(5):
            theta = rng.normal(size=ds.n_columns)
            alpha, B = recover_coefficients(ds, theta)
            full = ds.X @ theta
            quad = cell_predictor(shape, alpha, B)
            for cell in all_cells(shape):
                i = cell_index(shape, cell)
                for other in orbit(cell):
                    j = cell_index(shape, other)
                    assert abs(
                        (full[i] - full[j]) - (quad[i] - quad[j])
                    ) < 1e-10

    def test_dimension_check(self):
        ds = design_matrix(TableShape(3, 3), "gs")
        with pytest.raises(ValueError):
            recover_coefficients(ds, np.zeros(3))
