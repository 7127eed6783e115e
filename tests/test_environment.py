import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketfacts.environment import (
    HerdingConfig,
    HerdingPopulation,
    herding_step,
    population_excess_demand,
    switch_count,
)
from marketfacts.errors import ConfigError, NoAgents


def herding_oracle(agents, ed, dt):
    """Straight-line per-agent reimplementation of the herding update."""
    out = []
    for sigma, pressure, threshold in agents:
        if sigma * ed < 0:
            pressure = pressure + dt * abs(ed)
        if pressure >= threshold:
            sigma = -sigma
            pressure = 0.0
        out.append((sigma, pressure, threshold))
    return out


class TestHerdingPopulation:
    def test_empty_rejected(self):
        with pytest.raises(NoAgents):
            HerdingPopulation([], [], [])
        with pytest.raises(ConfigError, match="^herding.n_agents: must be >= 1$"):
            HerdingConfig(n_agents=0)

    def test_invalid_fields(self):
        with pytest.raises(ValueError, match="every sigma must be -1 or \\+1"):
            HerdingPopulation([0.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="pressures must be >= 0"):
            HerdingPopulation([1.0], [-0.1], [1.0])
        with pytest.raises(ValueError, match="thresholds must be > 0"):
            HerdingPopulation([1.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="lengths differ"):
            HerdingPopulation([1.0, -1.0], [0.0], [1.0, 1.0])

    def test_caller_arrays_stay_writable_and_unshared(self):
        sigma, pressure, threshold = np.ones(3), np.zeros(3), np.full(3, 2.0)
        pop = HerdingPopulation(sigma, pressure, threshold)
        sigma[0], pressure[0], threshold[0] = -1.0, 5.0, 9.0
        assert pop.sigma.tolist() == [1.0, 1.0, 1.0]
        assert pop.pressure.tolist() == [0.0, 0.0, 0.0]
        assert pop.threshold.tolist() == [2.0, 2.0, 2.0]
        assert not any(a.flags.writeable for a in (pop.sigma, pop.pressure, pop.threshold))

    def test_random_initialization(self):
        pop = HerdingPopulation.random(HerdingConfig(500, 1.0, 2.0), np.random.default_rng(0))
        assert len(pop) == 500
        assert set(np.unique(pop.sigma)) == {-1.0, 1.0}
        assert np.all(pop.pressure == 0.0)
        assert np.all((pop.threshold >= 1.0) & (pop.threshold <= 2.0))

    def test_config_rejects_invalid_band(self):
        for band, field in [((0.0, 1.0), "herding.threshold_min"),
                            ((1.0, math.inf), "herding.threshold_max"),
                            ((1.0, math.nan), "herding.threshold_max")]:
            with pytest.raises(ConfigError, match=f"^{field}: ") as info:
                HerdingConfig(10, *band)
            assert info.value.field == field


class TestPopulationExcessDemand:
    def test_all_positive(self):
        pop = HerdingPopulation(np.ones(10), np.zeros(10), np.ones(10))
        assert population_excess_demand(pop) == 1.0

    def test_half_half(self):
        sigma = np.array([1.0, -1.0] * 5)
        pop = HerdingPopulation(sigma, np.zeros(10), np.ones(10))
        assert population_excess_demand(pop) == 0.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(1)
        sigma = rng.choice([-1.0, 1.0], size=1000)
        pop = HerdingPopulation(sigma, np.zeros(1000), np.ones(1000))
        n_plus = int((sigma == 1.0).sum())
        expected = (n_plus - (1000 - n_plus)) / 1000
        assert population_excess_demand(pop) == pytest.approx(expected, abs=1e-15)
        assert -1.0 <= population_excess_demand(pop) <= 1.0


class TestHerdingStep:
    def test_switch_on_threshold(self):
        # pressure 0 -> 0.5 >= 0.4: flip and reset
        pop = HerdingPopulation([1.0], [0.0], [0.4])
        nxt = herding_step(pop, ed=-0.5, dt=1.0)
        assert nxt.sigma[0] == -1.0
        assert nxt.pressure[0] == 0.0

    def test_zero_ed_is_identity(self):
        pop = HerdingPopulation.random(HerdingConfig(n_agents=100), np.random.default_rng(2))
        nxt = herding_step(pop, ed=0.0, dt=1.0)
        np.testing.assert_array_equal(nxt.sigma, pop.sigma)
        np.testing.assert_array_equal(nxt.pressure, pop.pressure)

    def test_majority_agents_unchanged(self):
        pop = HerdingPopulation([1.0, -1.0], [0.3, 0.3], [1.0, 1.0])
        nxt = herding_step(pop, ed=0.2, dt=1.0)
        assert nxt.sigma[0] == 1.0 and nxt.pressure[0] == 0.3
        assert nxt.pressure[1] == pytest.approx(0.5)

    def test_pressure_strictly_increases_iff_minority(self):
        rng = np.random.default_rng(3)
        # high thresholds: no switches
        pop = HerdingPopulation.random(HerdingConfig(200, 5.0, 10.0), rng)
        for ed in (-0.7, 0.0, 0.4):
            nxt = herding_step(pop, ed, dt=1.0)
            increased = nxt.pressure > pop.pressure
            minority = (pop.sigma * ed < 0) & (ed != 0.0)
            np.testing.assert_array_equal(increased, minority)
            pop = nxt

    def test_conservation_and_sign_domain(self):
        rng = np.random.default_rng(4)
        pop = HerdingPopulation.random(HerdingConfig(n_agents=300), rng)
        for _ in range(50):
            pop = herding_step(pop, float(rng.normal()), dt=0.5)
        assert len(pop) == 300
        assert set(np.unique(pop.sigma)) <= {-1.0, 1.0}
        assert np.all(pop.pressure >= 0.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        pop = HerdingPopulation.random(HerdingConfig(100, 0.5, 2.0), rng)
        agents = [(int(s), float(p), float(t))
                  for s, p, t in zip(pop.sigma, pop.pressure, pop.threshold)]
        eds = rng.normal(scale=0.8, size=1000)
        for ed in eds:
            ed = float(ed)
            pop = herding_step(pop, ed, dt=0.3)
            agents = herding_oracle(agents, ed, 0.3)
        np.testing.assert_array_equal(pop.sigma, [a[0] for a in agents])
        np.testing.assert_allclose(pop.pressure, [a[1] for a in agents], atol=1e-15)

    def test_determinism(self):
        eds = np.random.default_rng(6).normal(size=200)

        def trajectory():
            pop = HerdingPopulation.random(HerdingConfig(n_agents=50), np.random.default_rng(7))
            states = []
            for ed in eds:
                pop = herding_step(pop, float(ed), dt=1.0)
                states.append((pop.sigma.tobytes(), pop.pressure.tobytes()))
            return states

        assert trajectory() == trajectory()

    def test_switch_count(self):
        before = HerdingPopulation([1.0, -1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        after = herding_step(before, ed=-2.0, dt=1.0)
        # both sigma=+1 agents flip (pressure 2 >= 1)
        assert switch_count(before, after) == 2

    def test_rejects_nonpositive_dt(self):
        pop = HerdingPopulation([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            herding_step(pop, 0.1, dt=0.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eds=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
    dt=st.floats(1e-3, 2.0),
)
def test_herding_invariants(seed, eds, dt):
    pop = HerdingPopulation.random(HerdingConfig(50, 0.2, 1.5), np.random.default_rng(seed))
    for ed in eds:
        nxt = herding_step(pop, ed, dt)
        assert set(np.unique(nxt.sigma)) <= {-1.0, 1.0}
        assert np.all((nxt.pressure >= 0.0) & (nxt.pressure < nxt.threshold))
        assert switch_count(pop, nxt) == np.count_nonzero(pop.sigma * nxt.sigma < 0.0)
        pop = nxt


def mask_step(pop, ed, dt):
    """The boolean-mask form of the herding update: the reference for the
    bits of ``herding_step``."""
    sigma = pop.sigma.copy()
    pressure = pop.pressure.copy()
    minority = sigma * ed < 0.0
    pressure[minority] += dt * abs(ed)
    switch = pressure >= pop.threshold
    sigma[switch] *= -1.0
    pressure[switch] = 0.0
    return sigma, pressure


@settings(max_examples=200, deadline=None)
@given(
    agents=st.lists(
        st.tuples(
            st.sampled_from([-1.0, 1.0]),
            st.floats(0.1, 2.0),
            # starting pressure as a fraction of the threshold: 1.0 is exactly at
            # it, and -0.0 gives a -0.0 pressure
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.5]), st.floats(0.0, 2.0)),
        ),
        min_size=1, max_size=30,
    ),
    eds=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
                  st.floats()),  # the full range: dt * |ed| overflows for the largest
        min_size=1, max_size=8,
    ),
    dt=st.floats(1e-3, 2.0),
)
def test_herding_step_matches_mask_formula(agents, eds, dt):
    sigma, threshold, frac = (np.array(col) for col in zip(*agents))
    pop = HerdingPopulation(sigma, threshold * frac, threshold)
    assert population_excess_demand(pop) == float(pop.sigma.mean())
    for ed in eds:
        before = [arr.tobytes() for arr in (pop.sigma, pop.pressure, pop.threshold)]
        want_sigma, want_pressure = mask_step(pop, ed, dt)
        nxt = herding_step(pop, ed, dt)
        assert nxt.sigma.tobytes() == want_sigma.tobytes()
        assert nxt.pressure.tobytes() == want_pressure.tobytes()
        assert nxt.threshold.tobytes() == before[2]
        assert [arr.tobytes() for arr in (pop.sigma, pop.pressure, pop.threshold)] == before
        assert not (nxt.sigma.flags.writeable or nxt.pressure.flags.writeable)
        assert population_excess_demand(nxt) == float(nxt.sigma.mean())  # the carried sum
        pop = nxt
