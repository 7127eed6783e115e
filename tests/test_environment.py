import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketfacts.environment import (
    HerdingConfig,
    HerdingPopulation,
    herding_step,
    population_excess_demand,
    switch_count,
)
from marketfacts.errors import ConfigError


def drawn_agents(config, seed):
    """sigma, pressure and threshold arrays, one entry per agent, from the
    draws of ``HerdingPopulation.random``: signs, then thresholds."""
    rng = np.random.default_rng(seed)
    sigma = rng.choice([-1.0, 1.0], size=config.n_agents)
    threshold = rng.uniform(config.threshold_min, config.threshold_max, size=config.n_agents)
    return sigma, np.zeros(config.n_agents), threshold


def per_agent(pop):
    """sigma, pressure and threshold arrays of the cohorts' agents."""
    cohorts = [(sign, pressure, thresholds) for sign, side in pop.cohorts.items()
               for pressure, thresholds in side]
    sizes = [len(thresholds) for *_, thresholds in cohorts]
    return (np.repeat([float(sign) for sign, *_ in cohorts], sizes),
            np.repeat([float(pressure) for _, pressure, _ in cohorts], sizes),
            np.array([t for *_, thresholds in cohorts for t in thresholds], dtype=float))


def agent_bytes(sigma, pressure, threshold):
    """The (sign, pressure, threshold) rows sorted by their bits: equal for
    two states that hold the same agents bit for bit."""
    rows = np.column_stack([sigma, pressure, threshold])
    return rows[np.lexsort(rows.view(np.uint64).T)].tobytes()


def mask_step(sigma, pressure, threshold, ed, dt):
    """The boolean-mask form of the herding update on per-agent arrays, in
    place: the reference for the bits of ``herding_step``.  Returns the
    number of agents that flip."""
    minority = sigma * ed < 0.0
    pressure[minority] += dt * abs(ed)
    switch = pressure >= threshold
    sigma[switch] *= -1.0
    pressure[switch] = 0.0
    return int(switch.sum())


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


def check_cohorts(pop):
    """The cohort layout: non-empty sorted cohorts below their thresholds,
    at most one of each sign at pressure 0.0 and that one newest, and the
    carried size and sign sum."""
    for side in pop.cohorts.values():
        for pressure, thresholds in side:
            assert thresholds and thresholds == sorted(thresholds)
            assert 0.0 <= pressure < thresholds[0]
        assert all(pressure > 0.0 for pressure, _ in side[:-1])
    sigma, _, _ = per_agent(pop)
    assert (pop.size, pop.total) == (sigma.size, int(sigma.sum()))


class TestHerdingPopulation:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="^herding.n_agents: must be >= 1, got 0$"):
            HerdingConfig(n_agents=0)

    def test_random_initialization(self):
        config = HerdingConfig(500, 1.0, 2.0)
        pop = HerdingPopulation.random(config, np.random.default_rng(0))
        sigma, pressure, threshold = per_agent(pop)
        assert pop.size == 500 and pop.flips == 0
        assert set(np.unique(sigma)) == {-1.0, 1.0}
        assert np.all(pressure == 0.0)
        assert np.all((threshold >= 1.0) & (threshold <= 2.0))
        assert [len(side) for side in pop.cohorts.values()] == [1, 1]  # one cohort per sign
        assert agent_bytes(sigma, pressure, threshold) == agent_bytes(*drawn_agents(config, 0))
        check_cohorts(pop)

    def test_config_rejects_invalid_band(self):
        for band, field in [((0.0, 1.0), "herding.threshold_min"),
                            ((1.0, math.inf), "herding.threshold_max"),
                            ((1.0, math.nan), "herding.threshold_max")]:
            with pytest.raises(ConfigError, match=f"^{field}: ") as info:
                HerdingConfig(10, *band)
            assert info.value.field == field


class TestPopulationExcessDemand:
    def test_all_positive(self):
        pop = HerdingPopulation.random(HerdingConfig(10, 1.0, 2.0), np.random.default_rng(0))
        assert pop.cohorts[-1]
        herding_step(pop, ed=1.0, dt=2.0)  # every -1 agent gains 2.0 >= its threshold
        assert population_excess_demand(pop) == 1.0

    def test_half_half(self):
        # seed 1 draws five signs of each kind for 10 agents
        pop = HerdingPopulation.random(HerdingConfig(10), np.random.default_rng(1))
        assert population_excess_demand(pop) == 0.0

    def test_counting_oracle(self):
        sigma, _, _ = drawn_agents(HerdingConfig(1000), 1)
        pop = HerdingPopulation.random(HerdingConfig(1000), np.random.default_rng(1))
        n_plus = int((sigma == 1.0).sum())
        assert population_excess_demand(pop) == (n_plus - (1000 - n_plus)) / 1000
        assert -1.0 <= population_excess_demand(pop) <= 1.0


class TestHerdingStep:
    def test_switch_on_threshold(self):
        # pressure 0 -> 0.5 >= 0.4: flip and reset
        pop = HerdingPopulation.random(HerdingConfig(1, 0.4, 0.4), np.random.default_rng(0))
        sign = pop.total
        assert herding_step(pop, ed=-0.5 * sign, dt=1.0) is pop
        assert pop.total == -sign and switch_count(pop, pop) == 1
        assert pop.cohorts[-sign] == [[0.0, [0.4]]] and pop.cohorts[sign] == []

    def test_zero_ed_is_identity(self):
        pop = HerdingPopulation.random(HerdingConfig(n_agents=100), np.random.default_rng(2))
        herding_step(pop, ed=0.3, dt=1.0)
        before = agent_bytes(*per_agent(pop))
        for ed in (0.0, -0.0, math.nan):
            herding_step(pop, ed, dt=1.0)
            assert agent_bytes(*per_agent(pop)) == before
            assert switch_count(pop, pop) == 0

    def test_majority_agents_unchanged(self):
        pop = HerdingPopulation.random(HerdingConfig(100, 5.0, 10.0), np.random.default_rng(3))
        herding_step(pop, ed=0.2, dt=1.0)
        herding_step(pop, ed=0.2, dt=1.0)
        assert [pressure for pressure, _ in pop.cohorts[1]] == [0.0]
        assert [pressure for pressure, _ in pop.cohorts[-1]] == [0.2 + 0.2]

    def test_pressure_strictly_increases_iff_minority(self):
        rng = np.random.default_rng(3)
        # high thresholds: no switches, so the cohorts keep their order
        pop = HerdingPopulation.random(HerdingConfig(200, 5.0, 10.0), rng)
        for ed in (-0.7, 0.0, 0.4):
            sigma, before, _ = per_agent(pop)
            herding_step(pop, ed, dt=1.0)
            _, after, _ = per_agent(pop)
            np.testing.assert_array_equal(after > before, (sigma * ed < 0) & (ed != 0.0))

    def test_conservation_and_sign_domain(self):
        rng = np.random.default_rng(4)
        pop = HerdingPopulation.random(HerdingConfig(n_agents=300), rng)
        for _ in range(50):
            herding_step(pop, float(rng.normal()), dt=0.5)
        sigma, pressure, _ = per_agent(pop)
        assert pop.size == sigma.size == 300
        assert set(np.unique(sigma)) <= {-1.0, 1.0}
        assert np.all(pressure >= 0.0)
        check_cohorts(pop)

    def test_matches_brute_force_oracle(self):
        config = HerdingConfig(100, 0.5, 2.0)
        pop = HerdingPopulation.random(config, np.random.default_rng(5))
        agents = [(int(s), float(p), float(t)) for s, p, t in zip(*drawn_agents(config, 5))]
        for ed in np.random.default_rng(6).normal(scale=0.8, size=1000).tolist():
            herding_step(pop, ed, dt=0.3)
            agents = herding_oracle(agents, ed, 0.3)
        assert agent_bytes(*per_agent(pop)) == agent_bytes(*np.array(agents, dtype=float).T)

    def test_determinism(self):
        eds = np.random.default_rng(6).normal(size=200).tolist()

        def trajectory():
            pop = HerdingPopulation.random(HerdingConfig(n_agents=50), np.random.default_rng(7))
            return [agent_bytes(*per_agent(herding_step(pop, ed, dt=1.0))) for ed in eds]

        assert trajectory() == trajectory()

    def test_switch_count(self):
        pop = HerdingPopulation.random(HerdingConfig(3, 1.0, 1.0), np.random.default_rng(0))
        n_plus = (pop.size + pop.total) // 2
        herding_step(pop, ed=-2.0, dt=1.0)
        # every sigma=+1 agent flips (pressure 2 >= 1)
        assert n_plus > 0 and switch_count(pop, pop) == n_plus
        assert pop.total == -pop.size

    def test_rejects_nonpositive_dt(self):
        pop = HerdingPopulation.random(HerdingConfig(n_agents=1), np.random.default_rng(0))
        for dt in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="dt must be > 0"):
                herding_step(pop, 0.1, dt=dt)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eds=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
    dt=st.floats(1e-3, 2.0),
)
def test_herding_invariants(seed, eds, dt):
    pop = HerdingPopulation.random(HerdingConfig(50, 0.2, 1.5), np.random.default_rng(seed))
    for ed in eds:
        total = pop.total
        herding_step(pop, ed, dt)
        check_cohorts(pop)
        # only the opposed sign flips, so the sign sum moves by two per flip
        assert abs(pop.total - total) == 2 * switch_count(pop, pop)


# EDs at the edges of the float range: signed zeros, the smallest
# subnormals, infinities, NaN, and values for which dt * |ED| overflows;
# and dyadic ones, whose pressures land exactly on a threshold of 1.0
EDGE_EDS = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e308, -1.7e308,
            0.5, -0.5, 1.0, -1.0]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_agents=st.one_of(st.integers(1, 40), st.sampled_from([2, 1000, 10_000]),
                       st.integers(1, 10_000)),
    band=st.one_of(st.just((1.0, 1.0)),  # every threshold ties
                   st.tuples(st.floats(0.01, 2.0), st.floats(0.0, 2.0)).map(
                       lambda b: (b[0], b[0] + b[1]))),
    dt=st.one_of(st.floats(1e-3, 2.0), st.floats(5e-324, 1e300),
                 st.sampled_from([0.25, 0.5, 1.0, 2.0])),
    ed_noise_std=st.sampled_from([0.0, 0.3, 1.0, 5.0]),
    # None: the population's own ED plus ed_noise_std times a normal, as a
    # cross_herding run drives it
    eds=st.lists(st.one_of(st.none(), st.none(), st.sampled_from(EDGE_EDS), st.floats()),
                 min_size=1, max_size=25),
)
@example(seed=2, n_agents=1000, band=(1.0, 1.0), dt=0.5, ed_noise_std=0.0,
         eds=[None, None, 0.3, None, 1e308, None, -0.0, math.nan, None])  # a tie at seed 2
@example(seed=3, n_agents=30, band=(1.0, 1.0), dt=0.5, ed_noise_std=0.0,
         eds=[1.0, 1.0, -1.0, -0.5, -0.5])  # pressures of exactly 1.0
@example(seed=9, n_agents=100_000, band=(1.0, 2.0), dt=0.02, ed_noise_std=1.0,
         eds=[None] * 12)
def test_herding_step_matches_mask_formula(seed, n_agents, band, dt, ed_noise_std, eds):
    config = HerdingConfig(n_agents, *band, ed_noise_std)
    pop = HerdingPopulation.random(config, np.random.default_rng(seed))
    sigma, pressure, threshold = drawn_agents(config, seed)
    normals = np.random.default_rng(seed + 1).standard_normal(len(eds)).tolist()
    assert population_excess_demand(pop).hex() == sigma.mean().hex()
    for ed, normal in zip(eds, normals):
        if ed is None:
            ed = population_excess_demand(pop) + ed_noise_std * normal
        flips = mask_step(sigma, pressure, threshold, ed, dt)
        assert herding_step(pop, ed, dt) is pop
        assert switch_count(pop, pop) == flips
        assert population_excess_demand(pop).hex() == sigma.mean().hex()
        assert agent_bytes(*per_agent(pop)) == agent_bytes(sigma, pressure, threshold)
        check_cohorts(pop)
