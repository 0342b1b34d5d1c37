"""Correlation, relative MAE, descriptive statistics, horizon aggregation,
and the cubic plotting fit."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eadforecast.errors import ConfigError, NumericalError
from eadforecast.metrics import (
    Forecasts,
    corr_coeff,
    descriptive_stats,
    evaluate_series,
    horizon_aggregate,
    mae,
    mae_with_skip_count,
    polyfit3,
    polyval,
)
from tests.oracles import per_date_values


class TestCorrCoeff:
    def test_perfect_positive(self):
        assert corr_coeff([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert corr_coeff([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        # n=4: (4*29 - 10*10) / sqrt((120-100)(120-100)) = 16/20 = 0.8
        assert corr_coeff([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(NumericalError):
            corr_coeff([5, 5, 5], [1, 2, 3])

    def test_affine_invariance_sign(self):
        # cc(u, a*u + b) is exactly +-1 depending on the sign of a.
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=rng.integers(2, 40))
            if np.ptp(u) == 0:
                continue
            a = rng.normal()
            if a == 0:
                continue
            b = rng.normal()
            expected = 1.0 if a > 0 else -1.0
            assert corr_coeff(u, a * u + b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            u = rng.normal(size=10)
            v = rng.normal(size=10)
            assert corr_coeff(u, v) == pytest.approx(corr_coeff(v, u), abs=1e-14)


class TestMae:
    def test_zero_on_equal(self):
        assert mae([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_hand_value(self):
        # (|100-90|/100 + |200-220|/200 + 0) / 3 = (0.1+0.1+0)/3
        assert mae([100, 200, 400], [90, 220, 400]) == pytest.approx(0.2 / 3, abs=1e-12)

    def test_zero_actual_skipped_and_counted(self):
        value, skipped = mae_with_skip_count([0.0, 100.0], [5.0, 110.0])
        assert value == pytest.approx(0.1, abs=1e-12)
        assert skipped == 1

    def test_all_zero_actuals_rejected(self):
        with pytest.raises(NumericalError):
            mae([0.0, 0.0], [1.0, 2.0])

    def test_uniform_relative_perturbation(self):
        # mae(u, u*(1+d)) == |d|
        rng = np.random.default_rng(2)
        for _ in range(30):
            u = rng.uniform(1.0, 500.0, size=rng.integers(1, 40))
            d = rng.uniform(-0.5, 0.5)
            assert mae(u, u * (1.0 + d)) == pytest.approx(abs(d), abs=1e-12)


class TestDescriptiveStats:
    def test_constant_series(self):
        row = descriptive_stats([5.0, 5.0, 5.0, 5.0])
        assert row.mean == 5.0 and row.stdev == 0.0 and row.range == 0.0 and row.mode == 5.0
        assert row.kurtosis is None and row.skewness is None

    def test_hand_values(self):
        # (1,2,2,5): mean 2.5, median 2, mode 2, sum 10, sample stdev sqrt(3)
        row = descriptive_stats([1.0, 2.0, 2.0, 5.0])
        assert row.mean == 2.5
        assert row.median == 2.0
        assert row.mode == 2.0
        assert row.sum == 10.0
        assert row.stdev == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_symmetric_series_skewness_zero(self):
        assert descriptive_stats([1, 2, 3, 4, 5]).skewness == pytest.approx(0.0, abs=1e-12)

    def test_normal_sample_excess_kurtosis_near_zero(self):
        x = np.random.default_rng(3).normal(size=20000)
        row = descriptive_stats(x)
        assert abs(row.kurtosis) < 0.15

    def test_mode_tie_breaks_smallest(self):
        assert descriptive_stats([1.0, 1.0, 3.0, 3.0]).mode == 1.0

    def test_short_series_reports_unavailable(self):
        row = descriptive_stats([1.0, 2.0, 4.0])
        assert row.kurtosis is None and row.skewness is None
        assert row.mean == pytest.approx(7.0 / 3.0)

    def test_internal_consistency_property(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(4, 60))
            x = rng.uniform(-100, 400, size=n)
            row = descriptive_stats(x)
            assert row.range == pytest.approx(row.max - row.min, abs=1e-9)
            assert row.std_error * np.sqrt(n) == pytest.approx(row.stdev, rel=1e-12)
            assert row.min <= row.median <= row.max


def day(n):
    return dt.date(2020, 1, 1) + dt.timedelta(days=n)


class TestHorizonAggregate:
    def test_k1_passthrough(self):
        agg = horizon_aggregate(Forecasts(day(0), [[10.0], [12.0]]))
        assert np.array_equal(agg.mean, [10.0, 12.0])
        assert np.array_equal(agg.min, agg.max)
        assert np.array_equal(agg.count, [1, 1])

    def test_k2_middle_date(self):
        # anchors day0 (10,20) and day1 (30,40): day1 is covered by 20 and 30.
        agg = horizon_aggregate(Forecasts(day(0), [[10.0, 20.0], [30.0, 40.0]]))
        i = agg.dates.index(day(1))
        assert agg.mean[i] == 25.0 and agg.min[i] == 20.0 and agg.max[i] == 30.0

    def test_first_date_covered_once(self):
        agg = horizon_aggregate(Forecasts(day(0), np.tile([1.0, 2.0, 3.0], (5, 1))))
        assert agg.dates[0] == day(0)
        assert agg.count[0] == 1

    def test_coverage_counts_and_ordering(self):
        # Interior dates of a long run are covered exactly K times, and
        # min <= mean <= max everywhere.
        rng = np.random.default_rng(5)
        k = 4
        agg = horizon_aggregate(Forecasts(day(0), rng.uniform(0, 100, size=(12, k))))
        assert np.all(agg.min <= agg.mean) and np.all(agg.mean <= agg.max)
        assert np.all((agg.count >= 1) & (agg.count <= k))
        interior = [i for i, d in enumerate(agg.dates) if day(k - 1) <= d <= day(11)]
        assert np.all(agg.count[interior] == k)

    @staticmethod
    def assert_matches_per_date_oracle(forecasts):
        # Every value covering a date, in anchor order, reduced per date.
        per_date = per_date_values(forecasts)
        agg = horizon_aggregate(forecasts)
        assert agg.dates == list(per_date) and agg.horizon == forecasts.values.shape[1]
        for got, reduce in ((agg.mean, np.mean), (agg.min, np.min), (agg.max, np.max), (agg.count, len)):
            want = np.array([reduce(values) for values in per_date.values()])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 28])
    @pytest.mark.parametrize("anchors", [1, 2, 27, 28, 29, 100])
    def test_matches_per_date_loop(self, k, anchors):
        # Spans shorter than K are all ragged edge.
        rng = np.random.default_rng(1000 * k + anchors)
        self.assert_matches_per_date_oracle(Forecasts(day(0), rng.uniform(0, 300, size=(anchors, k))))

    @given(first=st.dates(dt.date(2000, 1, 1), dt.date(2099, 1, 1)), k=st.integers(1, 40),
           anchors=st.integers(1, 90), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans())
    def test_matches_per_date_oracle_property(self, first, k, anchors, seed, ties):
        # Magnitudes over many decades, or few distinct values (ties), so the
        # mean's summation order shows in its bits.
        rng = np.random.default_rng(seed)
        if ties:
            y = rng.integers(-2, 3, size=(anchors, k)) * 0.1
        else:
            y = rng.normal(size=(anchors, k)) * 10.0 ** rng.integers(-8, 8, size=(anchors, k))
        self.assert_matches_per_date_oracle(Forecasts(first, y))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            horizon_aggregate(Forecasts(day(0), np.empty((0, 3))))

    @pytest.mark.parametrize("shape", [(0,), (3,), (3, 0), (2, 3, 1)])
    def test_values_other_than_anchors_by_k_rejected(self, shape):
        with pytest.raises(ConfigError):
            Forecasts(day(0), np.zeros(shape))


class TestPolyfit3:
    def test_exact_cubic(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        coef = polyfit3(x, x**3)
        np.testing.assert_allclose(coef, [0.0, 0.0, 0.0, 1.0], atol=1e-8)

    def test_constant(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        coef = polyfit3(x, np.full(5, 7.0))
        np.testing.assert_allclose(coef, [7.0, 0.0, 0.0, 0.0], atol=1e-10)

    def test_local_optimality(self):
        # Perturbing any fitted coefficient never lowers the residual.
        rng = np.random.default_rng(6)
        x = rng.uniform(-3, 3, size=40)
        y = 0.5 - 1.2 * x + 0.3 * x**2 + 0.05 * x**3 + rng.normal(0, 0.2, size=40)
        coef = polyfit3(x, y)
        base = np.sum((polyval(coef, x) - y) ** 2)
        for j in range(4):
            for delta in (-1e-3, 1e-3):
                bumped = coef.copy()
                bumped[j] += delta
                assert np.sum((polyval(bumped, x) - y) ** 2) >= base - 1e-12

    def test_too_few_distinct_x(self):
        with pytest.raises(NumericalError):
            polyfit3([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])


class TestEvaluateSeries:
    def test_perfect_fit(self):
        actual = np.array([100.0, 110.0, 120.0, 125.0])
        rep = evaluate_series(actual, actual.copy(), group="all")
        assert rep.cc == pytest.approx(1.0, abs=1e-12)
        assert rep.mae == 0.0
        assert rep.stats_real.mean == rep.stats_est.mean

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["actual", "estimated"])
    def test_non_finite_value_is_numerical_error(self, which, bad):
        series = {"actual": np.array([100.0, 110.0, 120.0, 125.0]),
                  "estimated": np.array([101.0, 108.0, 119.0, 127.0])}
        series[which][2] = bad
        with pytest.raises(NumericalError, match=f"the {which} series holds a non-finite value"):
            evaluate_series(series["actual"], series["estimated"])
