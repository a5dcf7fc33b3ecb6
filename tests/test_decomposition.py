"""The orbit-block Wald statistics of ``decompose`` against their dense oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest

from fsym import design, linkspace, oracle, simulate, wald
from fsym.datasets import anes_party_id
from fsym.divergences import hellinger, kl, pearson, power
from fsym.fitting import ModelSpec, fit_model
from fsym.tables import TableShape, symmetric_average

from conftest import (
    dense_decomposition,
    ladder_table,
    random_count_table,
    random_prob_table,
    restart_table,
)

SWEEP_TABLES = list(itertools.product(range(1, 9), ((3, 3), (4, 3), (3, 4)), (60, 500), (1.0, 0.3)))


@pytest.mark.parametrize("ff", [kl(), pearson(), hellinger(), power(2.0)], ids=lambda f: f.name)
def test_blocked_statistics_match_the_dense_oracle(ff):
    # the restart sweep's r >= 3 tables, at their smoothed proportions
    for seed, (r, T), n, c in SWEEP_TABLES:
        counts = restart_table(seed, r, T, n, c)
        p = counts.smoothed_proportions()
        *blocked, ridged = wald.decomposition_statistics(p, ff, counts.n)
        *dense, dense_ridged = dense_decomposition(p, ff, counts.n)
        assert blocked == pytest.approx(dense, rel=1e-9, abs=0.0), (seed, r, T, n, c)
        assert ridged == dense_ridged, (seed, r, T, n, c)


@pytest.mark.parametrize(
    "lam,table,w_gs",
    [(-2.0, (1, 3, 3, 500, 0.3), 11.901966379158428),
     (4.0, (4, 3, 4, 500, 0.3), 1100.3406487305799)],
)
def test_gs_statistic_where_the_dense_oracle_loses_digits(lam, table, w_gs):
    # w_gs from the dense formula in 50-digit arithmetic; the float dense
    # oracle is 1.2e-10 and 4.1e-5 off on these sweep tables
    counts = restart_table(*table)
    blocked = wald.decomposition_statistics(counts.smoothed_proportions(), power(lam), counts.n)
    assert blocked[0] == pytest.approx(w_gs, rel=1e-11)


@pytest.mark.parametrize("r", [3, 4])
def test_two_variable_tables(rng, r):
    counts = random_count_table(rng, TableShape(r, 2), n=300)
    report = wald.decompose(counts, kl())
    observed = report.evaluation_point == "observed"
    p = counts.proportions() if observed else counts.smoothed_proportions()
    dense = dense_decomposition(p, kl(), counts.n)
    assert [report.w_gs, report.w_me2, report.w_s] == pytest.approx(dense[:3], rel=1e-9)
    assert report.ridged == dense[3]
    assert report.orthogonality_residual < 1e-10
    rows = {row.family: row for row in report.g2_partition}
    assert rows["ce"].g2 == pytest.approx(0.0, abs=1e-10) and rows["ce"].df == 0


def test_no_dense_helper_on_the_path(monkeypatch):
    """decompose, the link fits and the block fits, from cold design caches,
    reach neither the oracle nor a dense form of the design."""
    def refuse(*args, **kwargs):
        raise AssertionError("a production path reached a dense helper")

    for name in ("sigma", "f_jacobian", "linkform_constraint", "fit_hlp"):
        monkeypatch.setattr(oracle, name, refuse)
    for name in ("X", "Xs", "U"):
        monkeypatch.setattr(design.DesignSystem, name, property(refuse))
    monkeypatch.setattr(design, "symmetry_indicator", refuse)
    design.design_matrix.cache_clear()
    linkspace.link_space.cache_clear()
    report = wald.decompose(anes_party_id(), kl())
    assert report.w_gs == pytest.approx(7.551355560095297, rel=1e-10)
    stack = [ladder_table(seed, 3, 3).counts for seed in (1, 2, 3)]
    for family in design.ASYMMETRY_FAMILIES:
        fit_model(anes_party_id(), ModelSpec(family, hellinger()))
        g2 = simulate.fit_block(TableShape(3, 3), stack, ModelSpec(family, kl()))
        assert not np.isnan(g2).all()


@pytest.mark.parametrize("ff", [kl(), hellinger(), power(2.0)], ids=lambda f: f.name)
@pytest.mark.parametrize("shape", [TableShape(3, 3), TableShape(4, 3), TableShape(3, 4)], ids=str)
def test_orthogonality_residual_is_the_dense_complement_norm(rng, shape, ff):
    # P_X as orbit averaging plus Q Q' against an orthonormal complement U
    U = design.design_matrix(shape, design.GS).U
    for _ in range(3):
        sym = symmetric_average(random_prob_table(rng, shape))
        _, e, a = wald._link_jacobian(sym, ff)
        dense = np.max(np.linalg.norm(U.T @ wald._cross_covariance(sym, e, a), axis=0))
        assert wald.orthogonality_residual(sym, ff) == pytest.approx(dense, rel=0.0, abs=1e-12)


def test_memory_is_linear_in_the_cells():
    """decompose on a 5^5 ``ladder_table``: the traced peak stays below half
    of one 3125 x 3125 float64 array, and W_gs is the dense path's."""
    counts = ladder_table(1, 5, 5)
    tracemalloc.start()
    try:
        report = wald.decompose(counts, kl())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert report.w_gs == pytest.approx(2544.393063727, rel=1e-9)
    assert not report.ridged
