import numpy as np
import pytest

from marketfacts.errors import NumericalBlowup
from marketfacts.market import PriceRule, price_step


class TestPriceRule:
    def test_rejects_negative_parameters(self):
        for kwargs in ({"gamma": -1.0}, {"sigma0": -0.1}, {"delta": -2.0}):
            with pytest.raises(ValueError):
                PriceRule(**kwargs)

    def test_rejects_unknown_noise_spec(self):
        with pytest.raises(ValueError):
            PriceRule(noise="garch")

    def test_builtin_forms(self):
        # from log price 0.0, eta = 0.0 leaves the drift F and ed = 0.0 the noise G
        rule = PriceRule(gamma=2.0, noise="constant", sigma0=3.0)
        assert price_step(0.0, 1.5, 0.25, rule, eta=0.0) == 2.0 * 0.25 * 1.5
        assert price_step(0.0, 0.0, 0.25, rule, eta=1.0) == 3.0 * 0.5
        assert price_step(0.1, 1.5, 0.25, rule, eta=-0.3) == 0.1 + 2.0 * 0.25 * 1.5 + 3.0 * 0.5 * -0.3
        prop = PriceRule(noise="proportional", delta=2.0)
        assert price_step(0.0, -1.5, 4.0, prop, eta=1.0) == 2.0 * 2.0 * 1.5


class TestPriceStep:
    def test_null_dynamics(self):
        rule = PriceRule()  # gamma = sigma0 = 0
        nxt = price_step(1.5, 3.0, 1.0, rule, eta=2.0)
        assert nxt == 1.5
        assert type(nxt) is float

    def test_linear_drift(self):
        rule = PriceRule(gamma=1.0)
        assert price_step(0.0, 1.0, 1.0, rule, eta=0.0) == 1.0

    def test_identity_on_zero_ed_zero_noise(self):
        rule = PriceRule(gamma=5.0, noise="proportional", delta=2.0)
        assert price_step(-0.7, 0.0, 0.5, rule, eta=1.0) == -0.7

    def test_pure_noise_increments_are_standard_normal(self):
        rng = np.random.default_rng(1)
        rule = PriceRule(gamma=0.0, noise="constant", sigma0=1.0)
        etas = rng.standard_normal(100_000)
        increments = np.empty_like(etas)
        for i, eta in enumerate(etas):
            # every step starts from 0.0 to bound the walk
            increments[i] = price_step(0.0, 0.0, 1.0, rule, eta)
            assert increments[i] == eta  # dt = 1, sigma0 = 1: exact
        assert abs(increments.mean()) < 0.02
        assert abs(increments.var() - 1.0) < 0.02

    def test_deterministic_trajectory_reproducible(self):
        rule = PriceRule(gamma=0.7)
        ed_seq = np.random.default_rng(2).normal(size=200)

        def trajectory():
            s = 0.3
            out = [s]
            for ed in ed_seq:
                s = price_step(s, ed, 0.1, rule, eta=0.0)
                out.append(s)
            return out

        assert trajectory() == trajectory()

    def test_blowup_guard(self):
        rule = PriceRule(gamma=1.0)
        with pytest.raises(NumericalBlowup) as exc_info:
            price_step(699.0, 10.0, 1.0, rule, eta=0.0)
        # the caller that knows the step index adds it
        assert str(exc_info.value) == "log price 709.0 out of range"
        assert exc_info.value.step_index is None

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt must be > 0, got 0.0"):
            price_step(0.0, 0.0, 0.0, PriceRule(), 0.0)
