import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsym.tables import (
    CountTable,
    DegenerateOrbitError,
    Orbits,
    ProbTable,
    TableShape,
    all_cells,
    cell_index,
    cell_of_index,
    conditional_within_orbit,
    orbit,
    orbit_representative,
    orbit_structure,
    orbit_sums,
    symmetric_average,
)

from conftest import random_prob_table


def enumerate_index(shape, cell):
    """Oracle: position of the cell in the sorted enumeration of all cells."""
    return sorted(itertools.product(range(1, shape.r + 1), repeat=shape.T)).index(cell)


class TestCellIndex:
    def test_first_and_last(self):
        shape = TableShape(3, 3)
        assert cell_index(shape, (1, 1, 1)) == 0
        assert cell_index(shape, (3, 3, 3)) == 26

    def test_against_enumeration(self):
        shape = TableShape(3, 3)
        assert cell_index(shape, (1, 2, 3)) == enumerate_index(shape, (1, 2, 3)) == 5

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("T", [2, 3, 4])
    def test_round_trip(self, r, T):
        shape = TableShape(r, T)
        for idx, cell in enumerate(all_cells(shape)):
            assert cell_index(shape, cell) == idx
            assert cell_of_index(shape, idx) == cell

    def test_out_of_range(self):
        shape = TableShape(3, 3)
        with pytest.raises(ValueError):
            cell_index(shape, (0, 1, 1))
        with pytest.raises(ValueError):
            cell_index(shape, (1, 1, 4))


class TestOrbits:
    def test_orbit_examples(self):
        assert set(orbit((1, 1, 3))) == {(1, 1, 3), (1, 3, 1), (3, 1, 1)}
        assert len(orbit((1, 2, 3))) == 6
        assert orbit((2, 2, 2)) == ((2, 2, 2),)

    def test_representative(self):
        assert orbit_representative((3, 1, 2)) == (1, 2, 3)
        assert orbit_representative((1, 1, 3)) == (1, 1, 3)

    def test_orbit_count_3x3x3(self):
        struct = orbit_structure(TableShape(3, 3))
        assert len(struct.members) == 10

    @pytest.mark.parametrize("r,T", [(2, 2), (3, 3), (4, 3), (3, 4)])
    def test_orbit_sizes_partition_cells(self, r, T):
        shape = TableShape(r, T)
        struct = orbit_structure(shape)
        assert sum(len(m) for m in struct.members) == r**T
        # multinomial coefficient: T! / prod(multiplicities!)
        import math

        cells = list(all_cells(shape))
        for members in struct.members:
            rep = orbit_representative(cells[members[0]])
            denom = 1
            for v in set(rep):
                denom *= math.factorial(rep.count(v))
            assert len(members) == math.factorial(T) // denom

    @pytest.mark.parametrize("r,T", [(2, 2), (2, 5), (3, 3), (4, 3), (3, 4)])
    def test_orbit_numbering(self, r, T):
        # The gamma columns of the design follow this numbering.
        shape = TableShape(r, T)
        struct = orbit_structure(shape)
        cells = list(all_cells(shape))
        reps = [cells[members[0]] for members in struct.members]
        assert all(a < b for a, b in zip(reps, reps[1:]))
        for rep, members in zip(reps, struct.members):
            assert rep == orbit_representative(rep)
            assert np.all(np.diff(members) > 0)
            assert all(tuple(sorted(cells[i])) == rep for i in members)
        assert len(reps) == shape.n_orbits

    @pytest.mark.parametrize("r,T", [(3, 3), (3, 4)])
    def test_reductions_of_a_stack_equal_each_row_alone(self, rng, r, T):
        shape = TableShape(r, T)
        struct = orbit_structure(shape)
        stack = rng.normal(size=(5, shape.n_cells))
        for reduce in (struct.min, struct.max, struct.sum):
            rows = reduce(stack)
            assert rows.shape == (5, shape.n_orbits)
            for k in range(5):
                np.testing.assert_array_equal(rows[k], reduce(stack[k]))
        np.testing.assert_array_equal(
            orbit_sums(shape, stack), struct.sum(stack)[:, struct.orbit_id]
        )


    def test_stacked_sums_share_one_read_only_index(self, rng):
        shape = TableShape(4, 3)
        struct = Orbits.of(orbit_structure(shape).orbit_id)  # a fresh index cache
        n_orb, N = shape.n_orbits, shape.n_cells

        def one_by_one(rows):
            return [np.bincount(struct.orbit_id, weights=row, minlength=n_orb) for row in rows]

        index = None
        for rows in (64, 7, 1, 0):
            stack = rng.normal(size=(rows, N))
            got = struct.sum(stack)
            assert got.shape == (rows, n_orb)
            np.testing.assert_array_equal(got, np.reshape(one_by_one(stack), (rows, n_orb)))
            index = struct._stacked_ids if index is None else index
            assert struct._stacked_ids is index
        assert index.shape == (64 * N,) and not index.flags.writeable
        stack = rng.normal(size=(2, 5, N))
        got = struct.sum(stack)
        assert got.shape == (2, 5, n_orb)
        np.testing.assert_array_equal(got.reshape(10, n_orb), one_by_one(stack.reshape(10, N)))
        vector = rng.normal(size=N)
        np.testing.assert_array_equal(struct.sum(vector), one_by_one([vector])[0])
        assert struct._stacked_ids is index

    def test_threads_growing_the_index_get_their_own_sums(self, rng):
        shape = TableShape(3, 3)
        struct = Orbits.of(orbit_structure(shape).orbit_id)
        # growing stacks, so that the threads keep replacing the index
        stacks = [rng.normal(size=(rows, shape.n_cells)) for rows in range(1, 301)]
        want = [[np.bincount(struct.orbit_id, weights=row) for row in s] for s in stacks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(struct.sum, stacks, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestSymmetricAverage:
    def test_pair_average_2x2(self):
        shape = TableShape(2, 2)
        p = ProbTable(shape, [0.1, 0.3, 0.2, 0.4])
        sym = symmetric_average(p)
        assert np.allclose(sym.probs, [0.1, 0.25, 0.25, 0.4])

    def test_uniform_fixed_point(self):
        shape = TableShape(3, 3)
        p = ProbTable(shape, np.full(27, 1 / 27))
        assert np.allclose(symmetric_average(p).probs, p.probs)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent_and_mass_preserving(self, seed):
        rng = np.random.default_rng(seed)
        p = random_prob_table(rng, TableShape(3, 3))
        once = symmetric_average(p)
        twice = symmetric_average(once)
        assert np.allclose(once.probs, twice.probs, atol=1e-15)
        assert abs(once.probs.sum() - 1.0) < 1e-12
        # orbit sums preserved exactly
        struct = orbit_structure(p.shape)
        for members in struct.members:
            assert np.isclose(
                p.probs[members].sum(), once.probs[members].sum(), atol=1e-15
            )


class TestConditionalWithinOrbit:
    def test_symmetric_gives_reciprocal_orbit_size(self, rng):
        p = symmetric_average(random_prob_table(rng, TableShape(3, 3)))
        cond = conditional_within_orbit(p)
        sizes = orbit_structure(p.shape).size_of_cell
        assert np.allclose(cond, 1.0 / sizes)

    def test_2x2_example(self):
        p = ProbTable(TableShape(2, 2), [0.1, 0.3, 0.2, 0.4])
        assert np.allclose(conditional_within_orbit(p), [1.0, 0.6, 0.4, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_orbit_sums_are_one(self, seed):
        rng = np.random.default_rng(seed)
        p = random_prob_table(rng, TableShape(3, 3))
        cond = conditional_within_orbit(p)
        struct = orbit_structure(p.shape)
        for members in struct.members:
            assert abs(cond[members].sum() - 1.0) < 1e-12

    def test_degenerate_orbit_rejected(self):
        probs = np.zeros(4)
        probs[0] = 0.5
        probs[3] = 0.5
        p = ProbTable(TableShape(2, 2), probs)
        with pytest.raises(DegenerateOrbitError):
            conditional_within_orbit(p)


class TestValidation:
    def test_scores_must_increase(self):
        with pytest.raises(ValueError):
            TableShape(3, 3, (1.0, 1.0, 2.0))

    def test_default_scores(self):
        assert TableShape(4, 2).scores == (1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize("r", [1, 0])
    def test_fewer_than_two_categories_are_refused(self, r):
        # one category leaves every moment constraint identically 0
        with pytest.raises(ValueError, match="at least two categories"):
            TableShape(r, 3)

    def test_cell_cap(self):
        with pytest.raises(ValueError):
            TableShape(10, 8)  # 10^8 cells exceeds the documented cap

    def test_count_table_needs_positive_total(self):
        with pytest.raises(ValueError):
            CountTable(TableShape(2, 2), [0, 0, 0, 0])

    def test_prob_table_tolerates_zeros(self):
        p = ProbTable(TableShape(2, 2), [0.0, 0.5, 0.5, 0.0])
        assert not p.is_interior
