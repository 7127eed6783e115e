import numpy as np
import pytest

from marketfacts.agents import (
    FWParams,
    chartist_demand,
    franke_westerhoff_ED,
    fundamentalist_demand,
)
from marketfacts.market import PriceRule, price_step


class TestFundamentalistDemand:
    def test_equilibrium(self):
        assert fundamentalist_demand(1.3, 0.4, 0.4) == 0.0

    def test_direct_evaluation(self):
        assert fundamentalist_demand(2.0, 1.0, 0.0) == 2.0

    def test_sign_tracks_mispricing(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = float(rng.uniform(0.1, 5.0))
            pf = float(rng.normal())
            price = float(rng.normal())
            demand = fundamentalist_demand(a, pf, price)
            assert np.sign(demand) == np.sign(pf - price)

    def test_per_step_fundamental(self):
        p = FWParams(a=1.0, log_fundamental=[0.0, 1.0, 2.0])
        assert p.fundamental_at(2) == 2.0
        assert fundamentalist_demand(p.a, p.fundamental_at(2), 0.0) == 2.0


class TestChartistDemand:
    def test_flat_market(self):
        assert chartist_demand(2.0, 0.5, 0.5) == 0.0

    def test_direct_evaluation(self):
        assert chartist_demand(3.0, 0.2, 0.1) == pytest.approx(0.3, abs=1e-15)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            now, prev = rng.normal(size=2)
            assert chartist_demand(1.7, now, prev) == -chartist_demand(1.7, prev, now)


class TestFrankeWesterhoffED:
    def test_equal_weight_average(self):
        params = FWParams(noise_std=0.0)
        assert franke_westerhoff_ED(0.2, -0.1, params) == pytest.approx(0.05)

    def test_null(self):
        assert franke_westerhoff_ED(0.0, 0.0, FWParams(noise_std=0.0)) == 0.0

    def test_noise_moments(self):
        params = FWParams(noise_std=1.0)
        rng = np.random.default_rng(2)
        draws = rng.standard_normal(100_000)
        residual = np.array(
            [franke_westerhoff_ED(0.2, 0.4, params, z) - 0.3 for z in draws]
        )
        assert abs(residual.mean()) < 0.02
        assert abs(residual.var() - 1.0) < 0.02

    def test_per_step_weights(self):
        params = FWParams(a=[1.0, 2.0], b=[3.0, 4.0])
        assert params.weights_at(0) == (1.0, 3.0)
        assert params.weights_at(1) == (2.0, 4.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            FWParams(noise_std=-0.5)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="every b value must be >= 0"):
            FWParams(b=-1.0)
        # zero weights express single-agent-type markets
        assert FWParams(a=0.0, b=0.0).weights_at(0) == (0.0, 0.0)


class TestClosedLoops:
    def test_fundamentalist_loop_converges_to_fundamental(self):
        # ED = ed_F, linear drift, zero noise, a*gamma*dt < 2
        a, gamma, dt, pf = 1.0, 0.5, 1.0, 2.0
        rule = PriceRule(gamma=gamma)
        s = 0.0
        for _ in range(10_000):
            ed = fundamentalist_demand(a, pf, s)
            s = price_step(s, ed, dt, rule, eta=0.0)
        assert abs(s - pf) < 1e-8

    def test_fundamentalist_loop_damped_oscillation(self):
        # 1 < a*gamma*dt < 2: alternating but shrinking error
        a, gamma, dt, pf = 1.5, 1.0, 1.0, 1.0
        rule = PriceRule(gamma=gamma)
        s = 0.0
        errors = []
        for _ in range(50):
            ed = fundamentalist_demand(a, pf, s)
            s = price_step(s, ed, dt, rule, eta=0.0)
            errors.append(s - pf)
        assert abs(errors[-1]) < abs(errors[0])
        assert errors[0] * errors[1] < 0  # sign alternates

    def test_chartist_loop_diverges_at_recurrence_eigenvalue(self):
        # S_{k+1} = S_k + c (S_k - S_{k-1}), c = b*gamma*dt: the recurrence
        # lambda^2 - (1+c) lambda + c = 0 has roots {1, c}; for c > 1 the
        # displacement grows by exactly c each step
        b, gamma, dt = 2.1, 0.5, 1.0
        c = b * gamma * dt  # 1.05, keeps 100 steps inside the blowup guard
        rule = PriceRule(gamma=gamma)
        s = 0.1
        prev = 0.0  # initial displacement 0.1
        for _ in range(100):
            ed = chartist_demand(b, s, prev)
            prev = s
            s = price_step(s, ed, dt, rule, eta=0.0)
        growth = (s - prev) / 0.1
        assert growth == pytest.approx(c**100, rel=1e-6)
