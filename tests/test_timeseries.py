import datetime as dt
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketfacts.errors import InsufficientData, InvalidPrice
from marketfacts.sim import config_from_dict, run_simulation
from marketfacts.timeseries import PriceSeries, absolute_returns, log_returns


def make_series(prices, start=dt.date(2010, 1, 1)):
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(prices)))
    return PriceSeries(dates=dates, prices=prices)


def log_difference(a, b):
    """ln(b) - ln(a) to 50 digits, rounded to a float."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(b)) - mpmath.log(mpmath.mpf(a)))


class TestPriceSeries:
    def test_valid_construction(self):
        s = make_series([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.prices[1] == 2.0

    def test_rejects_nonpositive_price(self):
        with pytest.raises(InvalidPrice):
            make_series([1.0, 0.0, 2.0])
        with pytest.raises(InvalidPrice):
            make_series([1.0, -3.0])

    def test_rejects_nan(self):
        with pytest.raises(InvalidPrice):
            make_series([1.0, float("nan")])

    def test_rejects_unordered_dates(self):
        dates = (dt.date(2010, 1, 2), dt.date(2010, 1, 1))
        with pytest.raises(InvalidPrice):
            PriceSeries(dates=dates, prices=[1.0, 2.0])

    def test_rejects_duplicate_dates(self):
        dates = (dt.date(2010, 1, 1), dt.date(2010, 1, 1))
        with pytest.raises(InvalidPrice):
            PriceSeries(dates=dates, prices=[1.0, 2.0])

    def test_rejects_dates_that_are_not_dates(self):
        with pytest.raises(InvalidPrice, match="^date entry '2000-01-03' is not a datetime.date$"):
            PriceSeries(dates=("2000-01-03",), prices=[1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidPrice):
            PriceSeries(dates=(dt.date(2010, 1, 1),), prices=[1.0, 2.0])

    def test_prices_are_readonly(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.prices[0] = 5.0


class TestLogReturns:
    def test_constant_series(self):
        r = log_returns(make_series([100.0, 100.0, 100.0]))
        np.testing.assert_array_equal(r, [0.0, 0.0])

    def test_exact_logs(self):
        e = math.e
        r = log_returns(make_series([1.0, e, e * e]))
        np.testing.assert_allclose(r, [1.0, 1.0], atol=1e-15)

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            log_returns(make_series([100.0]))

    @pytest.mark.parametrize("prices, expected", [
        ([1.0, 1e308, 5e-324], [709.1962086421661, -1453.6362805635474]),
        ([5e-324, 1e308, 1.0], [1453.6362805635474, -709.1962086421661]),
    ])
    def test_extreme_ratio_gives_finite_return(self, prices, expected):
        np.testing.assert_allclose(log_returns(make_series(prices)), expected, rtol=1e-14)

    def test_against_high_precision_oracle(self):
        # 1000 uniform prices in (50, 150), checked against 50-digit logs
        rng = np.random.default_rng(42)
        prices = rng.uniform(50.0, 150.0, size=1000)
        got = log_returns(make_series(prices))
        expected = [log_difference(a, b) for a, b in zip(prices, prices[1:])]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        prices = rng.uniform(10.0, 20.0, size=50)
        base = log_returns(make_series(prices))
        for scale in (0.001, 3.0, 1e6):
            scaled = log_returns(make_series(scale * prices))
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_price_reconstruction(self):
        rng = np.random.default_rng(11)
        prices = rng.uniform(50.0, 150.0, size=200)
        r = log_returns(make_series(prices))
        rebuilt = prices[0] * np.exp(np.cumsum(r))
        np.testing.assert_allclose(rebuilt, prices[1:], rtol=1e-9)


positive = st.floats(0.0, sys.float_info.max, exclude_min=True)  # subnormals too


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(positive, min_size=2, max_size=20))
def test_log_returns_are_finite_for_any_positive_prices(prices):
    got = log_returns(make_series(prices))
    p = np.array(prices)
    with np.errstate(all="ignore"):
        relative = np.log1p(np.diff(p) / p[:-1])
    for k, value in enumerate(got):
        if np.isfinite(relative[k]):  # the relative-change form keeps its bits
            assert value.tobytes() == relative[k].tobytes()
        else:
            exact = log_difference(prices[k], prices[k + 1])
            assert abs(value - exact) <= 1e-14 * abs(exact)


class TestAbsoluteReturns:
    def test_definition(self):
        a = absolute_returns(np.array([-1.0, 2.0, 0.0]))
        np.testing.assert_array_equal(a, [1.0, 2.0, 0.0])

    def test_empty_passthrough(self):
        a = absolute_returns([])
        assert len(a) == 0

    @given(st.lists(st.floats(-1e6, 1e6), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_matches_elementwise_loop(self, values):
        a = absolute_returns(values)
        assert list(a) == [abs(v) for v in values]

    def test_idempotent_via_raw_copy(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=100)
        once = absolute_returns(r)
        twice = absolute_returns(once)
        np.testing.assert_array_equal(once, twice)


def test_returns_are_readonly_float_arrays():
    fw = {"model": "fw_two_agent", "steps": 50, "fw": {"a": 1.0, "b": 0.5}}
    raw = log_returns(make_series([100.0, 101.0, 99.5]))
    for values in (raw, absolute_returns(raw), absolute_returns([-1, 2]),
                   run_simulation(config_from_dict(fw)).returns):
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0
