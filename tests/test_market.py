import math

import numpy as np
import pytest

from marketfacts.errors import NoAgents, NumericalBlowup
from marketfacts.market import (
    MarketState,
    PriceRule,
    aggregate_excess_demand,
    price_step,
)


class TestAggregateExcessDemand:
    def test_cancellation(self):
        assert aggregate_excess_demand([1.0, -1.0]) == 0.0

    def test_singleton(self):
        assert aggregate_excess_demand([2.0]) == 2.0

    def test_empty(self):
        with pytest.raises(NoAgents):
            aggregate_excess_demand([])

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(0)
        demands = rng.normal(size=10_000)
        expected = math.fsum(demands) / len(demands)
        assert aggregate_excess_demand(demands) == pytest.approx(expected, rel=1e-12)


class TestPriceRule:
    def test_rejects_negative_parameters(self):
        for kwargs in ({"gamma": -1.0}, {"sigma0": -0.1}, {"delta": -2.0}):
            with pytest.raises(ValueError):
                PriceRule(**kwargs)

    def test_rejects_unknown_noise_spec(self):
        with pytest.raises(ValueError):
            PriceRule(noise="garch")

    def test_builtin_forms(self):
        rule = PriceRule(gamma=2.0, noise="constant", sigma0=3.0)
        assert rule.drift(0.0, 1.5, 0.25) == 2.0 * 0.25 * 1.5
        assert rule.noise_amplitude(0.0, 1.5, 0.25) == 3.0 * 0.5
        prop = PriceRule(noise="proportional", delta=2.0)
        assert prop.noise_amplitude(0.0, -1.5, 4.0) == 2.0 * 2.0 * 1.5


class TestPriceStep:
    def test_null_dynamics(self):
        state = MarketState(log_price=1.5, dt=1.0)
        rule = PriceRule()  # gamma = sigma0 = 0
        nxt = price_step(state, 3.0, rule, eta=2.0)
        assert nxt.log_price == 1.5
        assert nxt.step_index == 1

    def test_linear_drift(self):
        state = MarketState(log_price=0.0, dt=1.0)
        rule = PriceRule(gamma=1.0)
        assert price_step(state, 1.0, rule, eta=0.0).log_price == 1.0

    def test_identity_on_zero_ed_zero_noise(self):
        state = MarketState(log_price=-0.7, dt=0.5)
        rule = PriceRule(gamma=5.0, noise="proportional", delta=2.0)
        assert price_step(state, 0.0, rule, eta=1.0).log_price == -0.7

    def test_pure_noise_increments_are_standard_normal(self):
        rng = np.random.default_rng(1)
        rule = PriceRule(gamma=0.0, noise="constant", sigma0=1.0)
        state = MarketState(log_price=0.0, dt=1.0)
        etas = rng.standard_normal(100_000)
        increments = np.empty_like(etas)
        for i, eta in enumerate(etas):
            nxt = price_step(state, 0.0, rule, eta)
            increments[i] = nxt.log_price - state.log_price
            assert increments[i] == eta  # dt = 1, sigma0 = 1: exact
            state = MarketState(log_price=0.0, dt=1.0)  # reset to bound the walk
        assert abs(increments.mean()) < 0.02
        assert abs(increments.var() - 1.0) < 0.02

    def test_deterministic_trajectory_reproducible(self):
        rule = PriceRule(gamma=0.7)
        ed_seq = np.random.default_rng(2).normal(size=200)

        def trajectory():
            state = MarketState(log_price=0.3, dt=0.1)
            out = [state.log_price]
            for ed in ed_seq:
                state = price_step(state, ed, rule, eta=0.0)
                out.append(state.log_price)
            return out

        assert trajectory() == trajectory()

    def test_blowup_guard(self):
        state = MarketState(log_price=699.0, step_index=41, dt=1.0)
        rule = PriceRule(gamma=1.0)
        with pytest.raises(NumericalBlowup) as exc_info:
            price_step(state, 10.0, rule, eta=0.0)
        assert exc_info.value.step_index == 41

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            MarketState(log_price=0.0, dt=0.0)
