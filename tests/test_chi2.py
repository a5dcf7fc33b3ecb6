import numpy as np
import pytest
from scipy import special, stats

from fsym import pvalue
from fsym.chi2 import chi2_sf, regularized_upper_gamma


class TestAgainstScipy:
    def test_grid(self):
        # scipy's gammaincc as the independent oracle
        for a in (0.5, 1.0, 2.5, 5.5, 8.5, 20.0, 50.0):
            for x in (0.0, 0.01, 0.3, 1.0, 2.7, 5.0, 12.0, 40.0, 120.0):
                ours = regularized_upper_gamma(a, x)
                ref = float(special.gammaincc(a, x))
                assert abs(ours - ref) < 1e-12, (a, x)

    def test_chi2_tail_vs_scipy(self):
        for df in (1, 2, 5, 11, 17, 38):
            for x in (0.0, 0.5, 3.34, 9.89, 15.5, 31.6, 45.3, 100.0):
                assert abs(chi2_sf(x, df) - stats.chi2.sf(x, df)) < 1e-12


class TestBehaviour:
    def test_zero_statistic(self):
        for df in (1, 2, 17):
            assert chi2_sf(0.0, df) == 1.0

    def test_monotone_in_statistic(self):
        values = [chi2_sf(x, 11) for x in np.linspace(0, 60, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_reference_roundings(self):
        # displayed p-values come from the unrounded statistics
        assert round(chi2_sf(3.34, 2), 3) == 0.188
        assert round(chi2_sf(15.47398, 11), 3) == 0.162

    @pytest.mark.parametrize("df", [0, 1, 3, 11])
    def test_nan_statistic_is_refused(self, df):
        # a NaN G2 is no evidence, so it must not read as p = 0
        with pytest.raises(ValueError, match="NaN"):
            chi2_sf(float("nan"), df)
        with pytest.raises(ValueError, match="NaN"):
            pvalue(float("nan"), df)
        with pytest.raises(ValueError, match="non-negative"):
            regularized_upper_gamma(1.5, float("nan"))

    def test_degenerate_df(self):
        assert chi2_sf(0.0, 0) == 1.0
        assert chi2_sf(1.0, 0) == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            regularized_upper_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(1.0, -1.0)
        with pytest.raises(ValueError):
            chi2_sf(1.0, -2)
