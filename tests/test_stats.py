import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketfacts import stats
from marketfacts.errors import (
    ConfigError,
    DegenerateSample,
    DegenerateTail,
    InsufficientData,
    InsufficientPositivePoints,
    InsufficientTail,
    LagTooLarge,
    MarketFactsError,
    NumericalBlowup,
)
from marketfacts.stats import (
    acf_profile,
    autocorrelation,
    excess_kurtosis,
    fit_power_decay,
    full_report,
    hill_estimator,
    histogram_data,
    mean_var,
    qq_data,
    skewness,
)


# ---------------------------------------------------------------- oracles

def acf_oracle(x, lag):
    """Straight-line evaluation of the sample autocorrelation estimator."""
    n = len(x)
    mean = sum(x) / n
    num = sum((x[t + lag] - mean) * (x[t] - mean) for t in range(n - lag))
    den = sum((v - mean) ** 2 for v in x)
    return num / den


def moments_oracle(x, dps=50):
    """Two-pass population moments at 50-digit precision."""
    with mpmath.workdps(dps):
        vals = [mpmath.mpf(float(v)) for v in x]
        n = len(vals)
        mean = mpmath.fsum(vals) / n
        var = mpmath.fsum((v - mean) ** 2 for v in vals) / n
        m3 = mpmath.fsum((v - mean) ** 3 for v in vals) / n
        m4 = mpmath.fsum((v - mean) ** 4 for v in vals) / n
        return (
            float(mean),
            float(var),
            float(m3 / var**mpmath.mpf("1.5")),
            float(m4 / var**2 - 3),
        )


def hill_oracle(x, tail_fraction=0.05):
    pos = sorted((v for v in x if v > 0), reverse=True)
    k = math.floor(tail_fraction * len(pos))
    s = sum(math.log(pos[i]) - math.log(pos[k]) for i in range(k)) / k
    return 1.0 / s


# ---------------------------------------------------------------- moments

class TestMeanVar:
    def test_constant(self):
        assert mean_var([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_symmetric_pair(self):
        assert mean_var([-1.0, 1.0]) == (0.0, 1.0)

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            mean_var([1.0])

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.0, size=10_000)
        mean, var = mean_var(x)
        o_mean, o_var, _, _ = moments_oracle(x)
        assert mean == pytest.approx(o_mean, rel=1e-12)
        assert var == pytest.approx(o_var, rel=1e-12)


class TestSkewness:
    def test_symmetric_three_point(self):
        assert skewness([-1.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_alternating(self):
        assert skewness([-1.0, 1.0, -1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_variance(self):
        with pytest.raises(DegenerateSample):
            skewness([2.0, 2.0, 2.0])

    def test_variance_cubed_underflows(self):
        # var is about 1.9e-321; its 1.5th power is 0.0
        with pytest.raises(DegenerateSample, match=r"^variance .* underflows to 0 at power "
                                                    r"1\.5: skewness undefined$"):
            skewness([0.0, 0.0, 0.0, 1e-160])
        # and the other end: the squares overflow, so var is inf (it read nan)
        with pytest.raises(DegenerateSample, match=r"^variance inf overflows at power "
                                                   r"1\.5: skewness undefined$"):
            skewness([1e200, -1e200, 0.0])
        # var**1.5 is finite, but the cube of the deviation 1e103 is not
        with pytest.raises(DegenerateSample, match=r"^variance 2\.37\d*e\+204 overflows at "
                                                   r"power 1\.5: skewness undefined$"):
            skewness([1e103] + [0.0] * 40)

    def test_variance_cubed_is_subnormal(self):
        # var ** 1.5 is 8e-323: m3 / var ** 1.5 read 1.1875 where it is 2/sqrt(3)
        with pytest.raises(DegenerateSample, match=r"^variance .* underflows to the subnormal "
                                                    r"8e-323 at power 1\.5: skewness undefined$"):
            skewness([0.0, 0.0, 0.0, 1e-107])

    def test_against_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.lognormal(size=5000)
        _, _, o_skew, _ = moments_oracle(x)
        assert skewness(x) == pytest.approx(o_skew, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.gamma(2.0, size=2000)
        base = skewness(x)
        assert skewness(5.0 * x - 7.0) == pytest.approx(base, rel=1e-9)


class TestExcessKurtosis:
    def test_two_point_law(self):
        assert excess_kurtosis([-1.0, 1.0, -1.0, 1.0]) == pytest.approx(-2.0, abs=1e-15)

    def test_gaussian_monte_carlo(self):
        x = np.random.default_rng(4).standard_normal(1_000_000)
        assert abs(excess_kurtosis(x)) < 0.05

    def test_gaussian_within_asymptotic_bound(self):
        n = 200_000
        x = np.random.default_rng(5).standard_normal(n)
        assert abs(excess_kurtosis(x)) < 4.0 * math.sqrt(24.0 / n)

    def test_zero_variance(self):
        with pytest.raises(DegenerateSample):
            excess_kurtosis([1.0] * 10)

    def test_variance_squared_underflows(self):
        # var is about 1.9e-201; its square is 0.0
        with pytest.raises(DegenerateSample, match=r"^variance .* underflows to 0 at power "
                                                    r"2\.0: kurtosis undefined$"):
            excess_kurtosis([0.0, 0.0, 0.0, 1e-100])
        # var is 5e199 and its square overflows (a float power raised OverflowError)
        with pytest.raises(DegenerateSample, match=r"^variance 5e\+199 overflows at power "
                                                   r"2\.0: kurtosis undefined$"):
            excess_kurtosis([1e100, -1e100, 0.0, 1.0])

    def test_variance_squared_is_subnormal(self):
        # var ** 2 is 3.5e-322: m4 / var ** 2 - 3 read -0.66197 where it is -2/3
        with pytest.raises(DegenerateSample, match=r"^variance .* underflows to the subnormal "
                                                    r"3\.5e-322 at power 2\.0: kurtosis undefined$"):
            excess_kurtosis([0.0, 0.0, 0.0, 1e-80])

    def test_against_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_t(5, size=5000)
        _, _, _, o_kurt = moments_oracle(x)
        assert excess_kurtosis(x) == pytest.approx(o_kurt, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_t(6, size=2000)
        base = excess_kurtosis(x)
        assert excess_kurtosis(0.01 * x + 3.0) == pytest.approx(base, rel=1e-9)


# ------------------------------------------------------------------- Hill

class TestHillEstimator:
    def test_exact_log_grid(self):
        # 60 positives, k = 3: top four are e^3, e^2, e, 1
        e = math.e
        rest = np.linspace(0.01, 0.99, 56)
        sample = np.concatenate([[e**3, e**2, e, 1.0], rest])
        assert hill_estimator(sample) == pytest.approx(0.5, rel=1e-12)

    def test_pareto_consistency(self):
        mu = 2.5
        u = np.random.default_rng(8).uniform(size=100_000)
        sample = u ** (-1.0 / mu)  # inverse-CDF Pareto draw
        h = hill_estimator(sample)
        assert 2.3 <= h <= 2.7

    def test_pareto_quantile_grid_convergence(self):
        n = 100_000
        for mu in (2.0, 3.0):
            i = np.arange(1, n + 1)
            grid = (i / n) ** (-1.0 / mu)
            assert hill_estimator(grid) == pytest.approx(mu, rel=0.05)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        sample = rng.lognormal(size=1000)
        base = hill_estimator(sample)
        for c in (1e-6, 42.0, 1e9):
            assert hill_estimator(c * sample) == pytest.approx(base, rel=1e-12)

    def test_drops_nonpositive_entries(self):
        rng = np.random.default_rng(10)
        pos = rng.lognormal(size=500)
        mixed = np.concatenate([pos, -rng.lognormal(size=300), np.zeros(10)])
        assert hill_estimator(mixed) == pytest.approx(hill_estimator(pos), rel=1e-12)

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientTail):
            hill_estimator(np.ones(10))  # k = 0

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_tail_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(InsufficientTail, match=r"is not in \(0, 1\)"):
            hill_estimator(np.random.default_rng(12).lognormal(size=1000), fraction)

    def test_degenerate_tail(self):
        # 60 positives whose top four coincide: zero log-excess sum
        sample = np.concatenate([[2.0, 2.0, 2.0, 2.0], np.linspace(0.01, 0.99, 56)])
        with pytest.raises(DegenerateTail):
            hill_estimator(sample)

    def test_against_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.pareto(3.0, size=2000) + 1.0
        assert hill_estimator(x) == pytest.approx(hill_oracle(x), rel=1e-12)


# -------------------------------------------------------- autocorrelation

class TestAutocorrelation:
    def test_alternating_lag_two(self):
        x = np.tile([1.0, -1.0], 50)
        assert autocorrelation(x, 2) == pytest.approx(0.98, abs=1e-12)

    def test_alternating_lag_one(self):
        x = np.tile([1.0, -1.0], 50)
        assert autocorrelation(x, 1) == pytest.approx(-0.99, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(DegenerateSample):
            autocorrelation(np.ones(50), 1)

    def test_subnormal_variance(self):
        # below a normal variance the products of deviations are subnormal and
        # lose precision; just above it they keep it
        r = np.random.default_rng(28).standard_normal(200)
        for scale in (1e-155, 1e-162):
            with pytest.raises(DegenerateSample, match=r" is subnormal: autocorrelation undefined$"):
                autocorrelation(r * scale, 1)
        assert autocorrelation(r * 1e-153, 1) == pytest.approx(autocorrelation(r, 1), rel=1e-14)

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            autocorrelation(np.arange(10.0), 9)
        with pytest.raises(LagTooLarge):
            autocorrelation(np.arange(10.0), 0)

    def test_lag_too_large_message_names_sizes(self):
        with pytest.raises(LagTooLarge, match=r"^lag 100 needs at least 102 points, got 29$"):
            autocorrelation(np.arange(29.0), 100)

    def test_check_lag_is_the_autocorrelation_check(self):
        stats.check_lag(8, 10)  # two overlapping points: enough
        for lag, message in ((9, "lag 9 needs at least 11 points, got 10"),
                             (0, "lag must be >= 1, got 0")):
            with pytest.raises(LagTooLarge) as direct:
                stats.check_lag(lag, 10)
            with pytest.raises(LagTooLarge) as via_acf:
                autocorrelation(np.arange(10.0), lag)
            assert str(direct.value) == str(via_acf.value) == message

    def test_against_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.normal(size=rng.integers(50, 300))
            for lag in (1, 3, 7):
                got = autocorrelation(x, lag)
                assert got == pytest.approx(acf_oracle(list(x), lag), rel=1e-12)
                assert -1.0 <= got <= 1.0


class TestAcfProfile:
    def test_white_noise_null_band(self):
        n = 100_000
        x = np.random.default_rng(13).standard_normal(n)
        profile = acf_profile(x, 100)
        assert np.all(np.abs(profile) < 3.0 / math.sqrt(n))

    def test_ar1_analytic_acf(self):
        phi, n = 0.8, 1_000_000
        rng = np.random.default_rng(14)
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0] / math.sqrt(1 - phi**2)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        profile = acf_profile(x, 20)
        for lag, value in enumerate(profile, start=1):
            assert value == pytest.approx(phi**lag, abs=0.01)

    def test_constant_series(self):
        with pytest.raises(DegenerateSample):
            acf_profile(np.full(100, 2.0), 10)

    def test_lags_strictly_increasing(self):
        x = np.random.default_rng(15).normal(size=500)
        profile = acf_profile(x, 30)
        assert profile.shape == (30,)
        assert [autocorrelation(x, lag) for lag in range(1, 31)] == profile.tolist()

    def test_names_the_largest_lag(self):
        with pytest.raises(LagTooLarge, match=r"^lag 100 needs at least 102 points, got 18$"):
            acf_profile(np.arange(18.0), 100)

    def test_checks_only_the_largest_lag(self, monkeypatch):
        checked = []
        check = stats.check_lag
        monkeypatch.setattr(stats, "check_lag", lambda lag, n: checked.append(lag) or check(lag, n))
        acf_profile(np.random.default_rng(16).normal(size=500), 100)
        assert checked == [100]  # every smaller lag leaves more overlapping points

    @pytest.mark.parametrize("x", [np.arange(18.0), np.ones(5), np.array([])])
    def test_no_lags(self, x):
        profile = acf_profile(x, 0)
        assert profile.shape == (0,) and profile.dtype == np.float64

    @pytest.mark.parametrize("max_lag, error, message", [
        (-3, LagTooLarge, "^lag must be >= 1, got -3$"),
        (0.5, TypeError, "^lag must be an integer, got 0.5$"),
        (1.5, TypeError, "^lag must be an integer, got 1.5$"),
        (0.0, TypeError, "^lag must be an integer, got 0.0$"),
    ], ids=["negative", "half", "one_and_a_half", "float_zero"])
    def test_nonzero_or_non_integer_lag_is_checked(self, max_lag, error, message):
        with pytest.raises(error, match=message):
            acf_profile(np.random.default_rng(17).normal(size=50), max_lag)


# The formulas as each statistic had its own body: the shared kernels must
# give the same bits and the same errors.

def old_autocorrelation(series, lag):
    x = np.asarray(series, dtype=float)
    stats.check_lag(lag, x.size)
    mean = x.mean()
    d = x - mean
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateSample("zero variance: autocorrelation undefined")
    num = float(np.dot(d[lag:], d[:-lag]))
    return num / denom


def old_acf_profile(series, max_lag):
    x = np.asarray(series, dtype=float)
    return np.array([old_autocorrelation(x, lag) for lag in range(1, max_lag + 1)])


def old_skewness(sample):
    x = np.asarray(sample, dtype=float)
    if x.size < 3:
        raise InsufficientData(f"need n >= 3 for skewness, got {x.size}")
    mean, var = mean_var(x)
    if var == 0.0:
        raise DegenerateSample("zero variance: skewness undefined")
    if var**1.5 == 0.0:
        raise DegenerateSample(f"variance {var!r} underflows to 0 at power 1.5: "
                               "skewness undefined")
    if var**1.5 < sys.float_info.min:
        raise DegenerateSample(f"variance {var!r} underflows to the subnormal {var**1.5!r} "
                               "at power 1.5: skewness undefined")
    m3 = float(np.mean((x - mean) ** 3))
    return m3 / var**1.5


def old_excess_kurtosis(sample):
    x = np.asarray(sample, dtype=float)
    if x.size < 4:
        raise InsufficientData(f"need n >= 4 for kurtosis, got {x.size}")
    mean, var = mean_var(x)
    if var == 0.0:
        raise DegenerateSample("zero variance: kurtosis undefined")
    if var**2 == 0.0:
        raise DegenerateSample(f"variance {var!r} underflows to 0 at power 2.0: "
                               "kurtosis undefined")
    if var**2 < sys.float_info.min:
        raise DegenerateSample(f"variance {var!r} underflows to the subnormal {var**2!r} "
                               "at power 2.0: kurtosis undefined")
    m4 = float(np.mean((x - mean) ** 4))
    return m4 / var**2 - 3.0


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its result's type, shape and bytes, or its
    error's type and message."""
    with np.errstate(all="ignore"):  # overflow gives inf/NaN on both sides alike
        try:
            value = fn(*args)
        except Exception as exc:
            return "raises", type(exc), str(exc)
    arr = np.asarray(value)
    return type(value), arr.dtype, arr.shape, arr.tobytes()


def assert_same(new, old):
    assert new == old
    if new[0] != "raises":  # float equality too, NaN matching NaN
        np.testing.assert_array_equal(np.frombuffer(new[3]), np.frombuffer(old[3]))


def assert_same_moment(new, old):
    """``assert_same``, except where the old formula overflowed (it raised
    OverflowError or gave a result that is not finite): there the shared
    kernel raises DegenerateSample naming the overflow."""
    if old[:2] == ("raises", OverflowError) or (
            old[0] != "raises" and not np.isfinite(np.frombuffer(old[3])).all()):
        assert new[:2] == ("raises", DegenerateSample) and " overflows at power " in new[2]
    else:
        assert_same(new, old)


finite = st.floats(allow_nan=False, allow_infinity=False)
samples = st.one_of(
    st.lists(finite, max_size=40),
    st.lists(st.floats(-10.0, 10.0), max_size=40),
    st.builds(lambda value, n: [value] * n, finite, st.integers(0, 40)),  # constant
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(samples, st.lists(st.integers(-2, 45), max_size=6), st.integers(0, 45))
def test_shared_kernels_match_the_separate_formulas(x, lags, max_lag):
    x = np.array(x, dtype=float)
    for lag in lags:
        assert_same(outcome(autocorrelation, x, lag), outcome(old_autocorrelation, x, lag))
    assert_same_moment(outcome(skewness, x), outcome(old_skewness, x))
    assert_same_moment(outcome(excess_kurtosis, x), outcome(old_excess_kurtosis, x))
    expected = outcome(old_acf_profile, x, max_lag)
    if max_lag >= 1 and x.size - max_lag < 2:  # too long: the largest lag is named
        expected = ("raises", LagTooLarge,
                    f"lag {max_lag} needs at least {max_lag + 2} points, got {x.size}")
    assert_same(outcome(acf_profile, x, max_lag), expected)


# ------------------------------------------------------------- tail / fit

class TestFitPowerDecay:
    def test_pareto_tail_regression(self):
        mu = 2.5
        sample = np.sort(np.random.default_rng(17).uniform(size=50_000) ** (-1.0 / mu))
        n = sample.size
        # complementary CDF #{x > r} / n at each (distinct) sample value r
        ccdf = (n - 1 - np.arange(n)) / n
        decile = (sample >= np.quantile(sample, 0.9)) & (ccdf > 0)
        fit = fit_power_decay(sample[decile], ccdf[decile])
        assert fit.exponent == pytest.approx(mu, abs=0.2)

    def test_exact_power_law(self):
        lags = np.arange(1, 51)
        fit = fit_power_decay(lags, lags**-0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-10)
        assert fit.fit_residual < 1e-10

    def test_scale_invariance_of_slope(self):
        lags = np.arange(1, 51)
        for c in (0.001, 7.5):
            fit = fit_power_decay(lags, c * lags**-1.2)
            assert fit.exponent == pytest.approx(1.2, abs=1e-10)

    def test_negative_values_excluded(self):
        lags = np.arange(1, 21)
        values = lags**-0.7
        values[::3] = -0.01  # dips below zero must not poison the fit
        fit = fit_power_decay(lags, values)
        assert fit.n_points == int((values > 0).sum())
        assert fit.exponent == pytest.approx(0.7, abs=1e-10)

    def test_too_few_positive_points(self):
        with pytest.raises(InsufficientPositivePoints):
            fit_power_decay(np.arange(1, 6), -np.ones(5))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_pairs_excluded(self, bad):
        x, values = np.arange(1.0, 8.0), np.arange(1.0, 8.0)
        finite = fit_power_decay(np.delete(x, 3), np.delete(values, 3))
        for x_bad, values_bad in [(x, values.copy()), (x.copy(), values)]:
            values_bad[3] = x_bad[3] = bad  # one of the two is a copy
            fit = fit_power_decay(x_bad, values_bad)
            assert fit == finite
            assert fit.n_points == 6
            assert fit.exponent == pytest.approx(-1.0, abs=1e-10)

    def test_fewer_than_five_finite_positive_pairs(self):
        values = [1.0, math.inf, 3.0, math.nan, 5.0, 6.0]
        with pytest.raises(InsufficientPositivePoints,
                           match=r"^only 4 strictly positive points, need >= 5$"):
            fit_power_decay(np.arange(1.0, 7.0), values)

    @pytest.mark.parametrize("x, values", [
        (np.arange(1, 6), np.ones(4)),
        (np.arange(1, 6), np.ones((5, 1))),
        (np.ones((5, 2)), np.ones((5, 2))),
    ], ids=["lengths", "column", "two_d"])
    def test_rejects_arrays_that_do_not_pair_up(self, x, values):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            fit_power_decay(x, values)


# -------------------------------------------------------------- figures

# a normal sample scaled so that its variance, about 1e-320, is subnormal
SUBNORMAL_VARIANCE_SAMPLE = np.random.default_rng(28).standard_normal(200) * 1e-160


class TestHistogramData:
    def test_two_bins(self):
        _, counts, _, _ = histogram_data([0.0, 0.0, 1.0, 1.0], 2)
        np.testing.assert_array_equal(counts, [2, 2])

    def test_counts_sum_to_n(self):
        x = np.random.default_rng(18).normal(size=1234)
        _, counts, _, _ = histogram_data(x, 37)
        assert counts.sum() == len(x)

    def test_degenerate_range(self):
        with pytest.raises(DegenerateSample):
            histogram_data([1.0, 1.0, 1.0], 5)

    def test_range_too_narrow_for_the_bins(self):
        x = [1.0, 1.0 + 2**-52] * 10
        with pytest.raises(DegenerateSample, match=r"cannot hold 200 finite bins$"):
            histogram_data(x, 200)
        _, counts, _, _ = histogram_data(x, 1)
        np.testing.assert_array_equal(counts, [20])

    def test_variance_underflowing_to_zero(self):
        # min < max, but each squared deviation is 0.0, or the variance is
        # subnormal and the density would have lost its precision
        for x, message in [
            ([0.0, 1e-170, 2e-170, 3e-170], r"^zero variance: Gaussian fit undefined$"),
            (SUBNORMAL_VARIANCE_SAMPLE, r"^variance .* is subnormal: Gaussian fit undefined$"),
        ]:
            assert mean_var(x)[1] < sys.float_info.min
            with pytest.raises(DegenerateSample, match=message):
                histogram_data(x, 2)

    def test_gaussian_fit_matches_empirical_frequencies(self):
        x = np.random.default_rng(19).standard_normal(1_000_000)
        edges, counts, centers, density = histogram_data(x, 200)
        width = edges[1] - edges[0]
        emp_freq = counts / len(x)
        assert np.max(np.abs(emp_freq - density * width)) < 0.01


class TestNormPpf:
    def test_median(self):
        assert stats._norm_ppf(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_known_quantile(self):
        assert stats._norm_ppf(np.array([0.975]))[0] == pytest.approx(1.959964, abs=1e-6)

    def test_against_high_precision_oracle(self):
        p = np.array([1e-10, 1e-6, 0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9,
                      0.99, 0.999, 1 - 1e-6, 1 - 1e-10])
        with mpmath.workdps(40):
            exact = [float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(q) - 1)) for q in p]
        np.testing.assert_allclose(stats._norm_ppf(p), exact, rtol=0, atol=1e-8)


class TestQqData:
    def test_median_pairing(self):
        # odd n: the middle pair is (mean, median)
        x = np.array([1.0, 2.0, 3.0, 5.0, 100.0])
        theo, emp = qq_data(x)
        assert theo[2] == pytest.approx(x.mean(), abs=1e-12)
        assert emp[2] == 3.0

    def test_zero_variance(self):
        for x, message in [
            (np.ones(10), r"^zero variance: qq plot undefined$"),
            (SUBNORMAL_VARIANCE_SAMPLE, r"^variance .* is subnormal: qq plot undefined$"),
        ]:
            with pytest.raises(DegenerateSample, match=message):
                qq_data(x)

    def test_quantile_grid_near_identity(self):
        # sample built from the normal quantile grid itself; deviation from
        # the identity line is limited by how close the grid's sample std
        # is to 1, which at n = 10^5 is ~1e-4
        n = 100_000
        grid = stats._norm_ppf((np.arange(1, n + 1) - 0.5) / n)
        theo, emp = qq_data(grid)
        assert np.max(np.abs(theo - emp)) < 1e-3


# Acklam's formula evaluated one Python float at a time, as qq_data did
# before it ran on arrays: the array kernel must give its bits.

def oracle_ppf_half(p):
    a, b, c, d = stats._PPF_A, stats._PPF_B, stats._PPF_C, stats._PPF_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    # Halley refinement; with x <= 0 the erfc argument is positive, so
    # Phi(x) keeps full relative precision even deep in the tail
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def oracle_ppf(p):
    return oracle_ppf_half(p) if p <= 0.5 else -oracle_ppf_half(1.0 - p)


def oracle_grid(n):
    return np.array([oracle_ppf((i - 0.5) / n) for i in range(1, n + 1)])


def assert_qq_grid_is_oracle(x):
    mean, var = mean_var(x)
    expected = mean + math.sqrt(var) * oracle_grid(x.size)
    assert qq_data(x)[0].tobytes() == expected.tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(2, 4000), st.integers(0, 2**32), st.floats(-1e3, 1e3), st.floats(1e-6, 1e3))
@example(n=2, seed=0, loc=0.0, scale=1.0)
@example(n=3, seed=0, loc=0.0, scale=1.0)  # odd n: p = 0.5 is on the grid
@example(n=3999, seed=1, loc=-2.0, scale=0.01)
def test_qq_grid_has_the_bits_of_the_scalar_formula(n, seed, loc, scale):
    x = loc + scale * np.random.default_rng(seed).standard_normal(n)
    assert_qq_grid_is_oracle(x)


def test_qq_grid_has_the_bits_of_the_scalar_formula_at_90k():
    assert_qq_grid_is_oracle(np.random.default_rng(15).standard_t(3, size=90_000))


# each side of both branch points, p = 1/2 and the neighbours of 1, subnormal p
# (the smallest overflows math.exp in the Halley step, on both sides alike)
EDGE_P = sorted({float(np.nextafter(c, d)) for c in (0.02425, 0.5, 1 - 0.02425, 1.0)
                 for d in (0.0, 1.0) if 0.0 < np.nextafter(c, d) < 1.0}
                | {0.02425, 0.5, 1 - 0.02425, 5e-324, 1e-310, sys.float_info.min})


def one_ppf(p):
    """The array kernel on a one-element array, as a Python float."""
    return float(stats._norm_ppf(np.array([p]))[0])


@pytest.mark.parametrize("p", EDGE_P)
def test_norm_ppf_has_the_bits_of_the_scalar_formula_at_edges(p):
    assert_same(outcome(one_ppf, p), outcome(oracle_ppf, p))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_norm_ppf_has_the_bits_of_the_scalar_formula(p):
    assert_same(outcome(one_ppf, p), outcome(oracle_ppf, p))


# ---------------------------------------------------------- full report

class TwoArgumentError(MarketFactsError):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class TestFullReport:
    def test_deterministic(self):
        r = np.random.default_rng(20).standard_normal(5000)
        a = full_report(r)
        b = full_report(r)
        assert a == b

    def test_report_shape(self):
        r = np.random.default_rng(21).standard_t(4, 10_000)
        d = full_report(r)
        assert all(-1.0 <= d[f"AutoCorr {lag}"] <= 1.0 for lag in (10, 20, 50, 100))
        assert set(d) == {
            "Skew", "Excess Kurtosis", "Hill 0.05",
            "AutoCorr 10", "AutoCorr 20", "AutoCorr 50", "AutoCorr 100",
        }

    def test_keys_are_report_rows_in_lag_order(self):
        r = np.random.default_rng(23).standard_normal(500)
        d = full_report(r, lags=(50, 3), tail_fraction=0.1)
        assert list(d) == stats.report_rows((50, 3), 0.1) == [
            "Skew", "Excess Kurtosis", "Hill 0.1", "AutoCorr 50", "AutoCorr 3",
        ]
        assert d["AutoCorr 3"] == autocorrelation(r, 3)
        assert d["Hill 0.1"] == hill_estimator(r, 0.1)

    def test_failing_statistic_is_named(self):
        # the largest lag is checked first, and the ACF before the moments
        with pytest.raises(LagTooLarge, match=r"^lag 100 needs at least 102 points, got 20$"):
            full_report(np.arange(20.0))
        with pytest.raises(DegenerateSample, match=r"^zero variance: autocorrelation undefined$"):
            full_report(np.zeros(5000))

    @pytest.mark.parametrize("error, message", [
        (ConfigError("bad", field="f"), "f: bad"),
        (NumericalBlowup("boom", step_index=3), "boom"),
        (TwoArgumentError("odd", 7), "odd"),
        (RuntimeError("not ours"), "not ours"),
    ], ids=["field", "step_index", "two_arguments", "foreign"])
    def test_member_error_reraised_as_same_object(self, monkeypatch, error, message):
        def failing(_):
            raise error

        monkeypatch.setattr(stats, "skewness", failing)
        sample = np.random.default_rng(22).standard_normal(500)
        with pytest.raises(type(error)) as e:
            full_report(sample)
        # the same object, so attributes such as field and step_index survive
        assert e.value is error
        assert str(e.value) == message

    def test_one_acf_pass(self, monkeypatch):
        calls = []
        acf = stats._acf

        def counting(x, lags):
            calls.append(list(lags))
            return acf(x, lags)

        monkeypatch.setattr(stats, "_acf", counting)
        monkeypatch.setattr(stats, "autocorrelation", None)  # no per-lag path
        full_report(np.random.default_rng(24).standard_normal(500), lags=(50, 3))
        assert calls == [[50, 3]]


    def test_cell_errors_fail_only_their_rows(self, monkeypatch):
        calls = []
        acf = stats._acf

        def counting(x, lags):
            calls.append(list(lags))
            return acf(x, lags)

        monkeypatch.setattr(stats, "_acf", counting)
        r = np.random.default_rng(26).standard_normal(40)
        d = full_report(r, lags=(100, 10, 50), cell_errors=True)
        assert calls == [[10]]  # the lags that fit, in one pass
        for lag in (100, 50):
            assert isinstance(d[f"AutoCorr {lag}"], LagTooLarge)
            assert str(d[f"AutoCorr {lag}"]) == f"lag {lag} needs at least {lag + 2} points, got 40"
        assert d["AutoCorr 10"] == autocorrelation(r, 10)
        assert d["Skew"] == skewness(r)
        assert list(d) == stats.report_rows((100, 10, 50), stats.DEFAULT_TAIL_FRACTION)

    def test_cell_errors_on_an_overflowing_sample(self):
        d = full_report([1e100, -1e100, 0.0, 1.0], lags=(1,), cell_errors=True)
        assert str(d["Excess Kurtosis"]) == "variance 5e+199 overflows at power 2.0: kurtosis undefined"
        assert isinstance(d["Excess Kurtosis"], DegenerateSample)
        assert d["Skew"] == skewness([1e100, -1e100, 0.0, 1.0])

    def test_cell_errors_on_a_constant_sample(self):
        d = full_report(np.zeros(500), lags=(10, 20), cell_errors=True)
        assert {row: type(value) for row, value in d.items()} == {
            "Skew": DegenerateSample, "Excess Kurtosis": DegenerateSample,
            "Hill 0.05": InsufficientTail,
            "AutoCorr 10": DegenerateSample, "AutoCorr 20": DegenerateSample,
        }
        assert str(d["AutoCorr 10"]) == "zero variance: autocorrelation undefined"

    def test_cell_errors_keep_foreign_errors_raising(self, monkeypatch):
        error = RuntimeError("not ours")

        def failing(_):
            raise error

        monkeypatch.setattr(stats, "skewness", failing)
        with pytest.raises(RuntimeError) as e:
            full_report(np.random.default_rng(27).standard_normal(500), cell_errors=True)
        assert e.value is error


@pytest.mark.parametrize("lag", [10.5, 10.0, "10"])
@pytest.mark.parametrize("statistic", [
    autocorrelation, lambda x, lag: full_report(x, lags=(lag,)),
], ids=["autocorrelation", "full_report"])
def test_non_integer_lag_is_refused(statistic, lag):
    x = np.random.default_rng(25).standard_normal(500)
    with pytest.raises(TypeError, match=rf"^lag must be an integer, got {re.escape(repr(lag))}$"):
        statistic(x, lag)
    assert statistic(x, np.int64(10)) == statistic(x, 10)  # numpy integers still count
