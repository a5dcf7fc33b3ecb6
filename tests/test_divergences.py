import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsym.divergences import (
    DomainError,
    FFunction,
    divergence,
    hellinger,
    kl,
    parse_f,
    pearson,
    power,
)
from fsym.datasets import anes_party_id
from fsym.fitting import ModelSpec, discrepancy_measure, fit_model, potential_params
from fsym.tables import ProbTable, TableShape, all_cells, orbit_representative

from conftest import random_prob_table

ALL_BASE = [kl(), pearson(), hellinger(), power(2.0), power(-1.0), power(0.3)]


def standardness_residuals(ff):
    """(f(1), F(1), f''(1)) should be (0, 0, 1); also checks f'' by differences."""
    eps = 1e-5
    fd_second = (ff.f(1 + eps) - 2 * ff.f(1.0) + ff.f(1 - eps)) / eps**2
    return (
        float(ff.f(1.0)),
        float(ff.F(1.0)),
        float(ff.f_second(1.0)) - 1.0,
        fd_second - 1.0,
    )


class TestStandardness:
    @pytest.mark.parametrize("ff", ALL_BASE, ids=lambda f: f.name)
    def test_triple(self, ff):
        f1, F1, d2, d2_fd = standardness_residuals(ff)
        assert abs(f1) < 1e-10
        assert abs(F1) < 1e-10
        assert abs(d2) < 1e-10
        assert abs(d2_fd) < 1e-4

    def test_sampled_lambdas(self, rng):
        for lam in rng.uniform(-2, 2, size=50):
            if abs(lam) < 1e-12 or abs(lam + 1) < 1e-12:
                continue
            f1, F1, d2, _ = standardness_residuals(power(lam))
            assert max(abs(f1), abs(F1), abs(d2)) < 1e-10

    def test_derivatives_match_finite_differences(self, rng):
        for ff in ALL_BASE:
            for x in rng.uniform(0.2, 5.0, size=10):
                eps = 1e-6
                fd_F = (ff.f(x + eps) - ff.f(x - eps)) / (2 * eps)
                assert abs(fd_F - ff.F(x)) < 1e-6 * max(1, abs(ff.F(x)))
                fd_f2 = (ff.F(x + eps) - ff.F(x - eps)) / (2 * eps)
                assert abs(fd_f2 - ff.f_second(x)) < 1e-5 * max(1, abs(ff.f_second(x)))
                fd_f3 = (ff.f_second(x + eps) - ff.f_second(x - eps)) / (2 * eps)
                assert abs(fd_f3 - ff.f_third(x)) < 1e-4 * max(1, abs(ff.f_third(x)))


class TestInverseLink:
    def test_pearson_value(self):
        assert pearson().F_inv(0.5) == pytest.approx(1.5, abs=1e-14)

    def test_zero_maps_to_one_everywhere(self):
        for ff in ALL_BASE:
            assert float(ff.F_inv(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_hellinger_formula(self):
        assert hellinger().F_inv(1.0) == pytest.approx(4.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-2, max_value=2).filter(
            lambda l: abs(l) > 1e-3 and abs(l + 1) > 1e-3
        ),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_round_trip(self, lam, x):
        ff = power(lam)
        y = float(ff.F(x))
        assert float(ff.F(ff.F_inv(y))) == pytest.approx(y, abs=1e-10)

    def test_round_trip_small_lambda(self):
        for lam in (1e-5, -1e-5, 1e-9, -1e-9):
            ff = power(lam)
            for x in (0.2, 0.9, 3.7):
                assert float(ff.F_inv(ff.F(x))) == pytest.approx(x, rel=1e-9)

    def test_domain_errors_carry_bound(self):
        with pytest.raises(DomainError) as err:
            pearson().F_inv(-2.0)
        assert err.value.bound == (-1.0, math.inf)
        with pytest.raises(DomainError):
            hellinger().F_inv(2.0)
        with pytest.raises(DomainError):
            power(0.5).F_inv(-3.0)


class TestNamedFunctionsArePowerMembers:
    """kl, pearson and hellinger are power(0), power(1) and power(-1/2)."""

    PAIRS = [(kl(), 0.0), (pearson(), 1.0), (hellinger(), -0.5)]

    @pytest.mark.parametrize("named, lam", PAIRS, ids=lambda v: getattr(v, "name", v))
    def test_formulas(self, named, lam):
        member = power(lam)
        assert named.link_lam == lam
        x = np.geomspace(1e-3, 1e3, 41)
        for method in ("f", "F", "f_second", "f_third"):
            np.testing.assert_allclose(
                getattr(named, method)(x), getattr(member, method)(x), rtol=1e-12, atol=1e-12
            )
        assert named.F_inv_domain() == member.F_inv_domain()
        lo, hi = member.F_inv_domain()
        y = np.linspace(-3.0, 3.0, 61)
        y = y[(y > lo) & (y < hi)]
        np.testing.assert_allclose(named.F_inv(y), member.F_inv(y), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("named, lam", PAIRS, ids=lambda v: getattr(v, "name", v))
    def test_divergence_with_zero_cells(self, rng, named, lam):
        shape = TableShape(3, 3)

        def table(zero_share):
            v = rng.dirichlet(np.ones(shape.n_cells))
            v[rng.random(shape.n_cells) < zero_share] = 0.0
            return ProbTable(shape, v / v.sum())

        for _ in range(20):
            p, q = table(0.2), table(0.0)
            for a, b in ((p, q), (q, p), (p, table(0.2)), (p, p)):
                assert divergence(named, a, b) == pytest.approx(
                    divergence(power(lam), a, b), rel=1e-12, abs=1e-12
                )

    def test_panel_potentials_and_discrepancies(self):
        table = anes_party_id()
        named = fit_model(table, ModelSpec("gs", hellinger()))
        member = fit_model(table, ModelSpec("gs", power(-0.5)))
        theta_named, theta_member = potential_params(named), potential_params(member)
        for cell in all_cells(table.shape):
            assert theta_named[cell] == pytest.approx(theta_member[cell], rel=1e-12, abs=1e-12)
            base = orbit_representative(cell)
            assert discrepancy_measure(named, cell, base) == pytest.approx(
                discrepancy_measure(member, cell, base), rel=1e-12, abs=1e-12
            )


class TestDivergence:
    def test_identity_is_zero(self, rng):
        shape = TableShape(3, 2)
        p = random_prob_table(rng, shape)
        for ff in ALL_BASE:
            assert divergence(ff, p, p) == pytest.approx(0.0, abs=1e-14)

    def test_kl_frozen_value(self):
        # direct-summation oracle: 0.5 log 2 + 0.5 log(2/3) = log(4/3)/2,
        # carried by a 2x2 table whose mass sits in the first row
        p = ProbTable(TableShape(2, 2), [0.5, 0.5, 0.0, 0.0])
        q = ProbTable(TableShape(2, 2), [0.25, 0.75, 0.0, 0.0])
        expected = 0.14384103622589042  # = log(4/3)/2
        assert divergence(kl(), p, q) == pytest.approx(expected, abs=1e-12)

    def test_small_lambda_agrees_with_kl(self, rng):
        shape = TableShape(3, 3)
        for _ in range(5):
            p = random_prob_table(rng, shape)
            q = random_prob_table(rng, shape)
            assert divergence(power(1e-6), p, q) == pytest.approx(
                divergence(kl(), p, q), abs=1e-5
            )

    def test_nonnegative_and_positive_when_different(self, rng):
        shape = TableShape(2, 3)
        for _ in range(100):
            p = random_prob_table(rng, shape)
            q = random_prob_table(rng, shape)
            d = divergence(pearson(), p, q)
            assert d >= 0
            if np.max(np.abs(p.probs - q.probs)) > 1e-6:
                assert d > 0

    def test_scaling_by_constant(self, rng):
        # direct-summation oracle for c*f against the library value
        shape = TableShape(3, 2)
        p = random_prob_table(rng, shape)
        q = random_prob_table(rng, shape)
        for ff in (kl(), hellinger()):
            base = divergence(ff, p, q)
            for c in (0.5, 2.0):
                scaled = float(np.sum(q.probs * c * np.asarray(ff.f(p.probs / q.probs))))
                assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_infinite_divergence_is_value_not_exception(self):
        shape = TableShape(2, 2)
        p = ProbTable(shape, [0.5, 0.5, 0.0, 0.0])
        q = ProbTable(shape, [0.0, 0.5, 0.25, 0.25])
        assert divergence(kl(), p, q) == math.inf

    def test_shape_mismatch(self, rng):
        p = random_prob_table(rng, TableShape(2, 2))
        q = random_prob_table(rng, TableShape(3, 2))
        with pytest.raises(ValueError):
            divergence(kl(), p, q)


class TestParse:
    def test_names(self):
        assert parse_f("kl").family == "kl"
        assert parse_f("power:0.5").lam == 0.5
        assert parse_f("POWER:-1").lam == -1.0
        with pytest.raises(ValueError):
            parse_f("power:x")
        with pytest.raises(ValueError):
            parse_f("tsallis")

    def test_family_validation(self):
        with pytest.raises(ValueError):
            FFunction("power")
        with pytest.raises(ValueError):
            FFunction("kl", 1.0)
