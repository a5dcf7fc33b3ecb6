import numpy as np
import pytest

from fsym.tables import CountTable, ProbTable, TableShape


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_prob_table(rng, shape: TableShape, concentration: float = 1.0) -> ProbTable:
    return ProbTable(shape, rng.dirichlet(np.full(shape.n_cells, concentration)))


def random_count_table(rng, shape: TableShape, n: int = 500) -> CountTable:
    probs = rng.dirichlet(np.ones(shape.n_cells))
    return CountTable(shape, rng.multinomial(n, probs))


def restart_table(seed, r, T, n, concentration):
    """One table of the restart sweep (``scripts/restart_sweep.py``): its
    draws replayed from ``default_rng(seed)`` in the sweep's order."""
    rng = np.random.default_rng(seed)
    for rr, TT in ((2, 3), (3, 3), (4, 3), (3, 4)):
        shape = TableShape(rr, TT)
        for nn in (60, 500):
            for c in (1.0, 0.3):
                probs = rng.dirichlet(np.full(shape.n_cells, c))
                counts = rng.multinomial(nn, probs)
                if (rr, TT, nn, c) == (r, T, n, concentration):
                    return CountTable(shape, counts)
    raise ValueError("not a table of the restart sweep")
