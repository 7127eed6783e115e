"""Threshold-herding environment: agents hold a position sign in {-1, +1}
and accumulate pressure while their position opposes the aggregated excess
demand; crossing an individual threshold flips the position.

The population is stored as flat numpy arrays so a 10^5-step run over 10^3
agents stays fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoAgents, finite_number, integer
from .timeseries import _readonly


@dataclass(frozen=True)
class HerdingConfig:
    """Environment parameters of the cross_herding model.

    ``ed_noise_std`` perturbs the herding signal only (exogenous order
    flow seen by the agents); the price responds to the population's true
    aggregate position.  Without this perturbation the herding rule
    freezes in full consensus.
    """

    n_agents: int = 1000
    threshold_min: float = 1.0
    threshold_max: float = 2.0
    ed_noise_std: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_agents", integer(self.n_agents, "herding.n_agents"))
        for name in ("threshold_min", "threshold_max", "ed_noise_std"):
            object.__setattr__(self, name, finite_number(getattr(self, name), f"herding.{name}"))
        if self.n_agents < 1:
            raise ConfigError("must be >= 1", field="herding.n_agents")
        if not 0.0 < self.threshold_min <= self.threshold_max:
            raise ConfigError(
                f"invalid band [{self.threshold_min}, {self.threshold_max}]",
                field="herding.threshold_min",
            )
        if self.ed_noise_std < 0.0:
            raise ConfigError("must be >= 0", field="herding.ed_noise_std")


class HerdingPopulation:
    """Immutable array-of-agents; updates return a new population.

    ``total`` is the sum of the signs, an integer that a float holds
    exactly; :func:`herding_step` keeps it up to date.
    """

    __slots__ = ("sigma", "pressure", "threshold", "total")

    def __init__(self, sigma, pressure, threshold):
        self.sigma = _readonly(sigma)
        # + 0.0 stores a -0.0 pressure as +0.0, which herding_step's
        # "+ 0.0 for agents that accrue nothing" keeps bit for bit
        self.pressure = _readonly(np.add(pressure, 0.0))
        self.threshold = _readonly(threshold)
        n = self.sigma.size
        if n == 0:
            raise NoAgents("herding population must be non-empty")
        if self.pressure.size != n or self.threshold.size != n:
            raise ValueError("sigma, pressure and threshold lengths differ")
        if not np.all(np.abs(self.sigma) == 1.0):
            raise ValueError("every sigma must be -1 or +1")
        if not np.all(self.pressure >= 0.0):
            raise ValueError("pressures must be >= 0")
        if not np.all(self.threshold > 0.0):
            raise ValueError("thresholds must be > 0")
        # a sum of +-1 values is exact in any order
        self.total = float(np.add.reduce(self.sigma))

    @classmethod
    def _of(cls, sigma, pressure, threshold, total) -> "HerdingPopulation":
        """Wrap valid read-only arrays and their sign sum as they are: no
        checks, no copies."""
        pop = cls.__new__(cls)
        pop.sigma, pop.pressure, pop.threshold, pop.total = sigma, pressure, threshold, total
        return pop

    @classmethod
    def random(cls, config: HerdingConfig, rng: np.random.Generator) -> "HerdingPopulation":
        """Uniform random signs, zero pressure, thresholds uniform in the config's band.

        Draw order (signs first, then thresholds) is part of the
        reproducibility contract.
        """
        n = config.n_agents
        sigma = rng.choice([-1.0, 1.0], size=n)
        threshold = rng.uniform(config.threshold_min, config.threshold_max, size=n)
        return cls(sigma, np.zeros(n), threshold)

    def __len__(self) -> int:
        return int(self.sigma.size)


def population_excess_demand(pop: HerdingPopulation) -> float:
    """Aggregated excess demand with ed_i = sigma_i: the mean position."""
    # the carried sign sum is exact, so this is sigma.mean() bit for bit
    return pop.total / pop.sigma.size


def herding_step(pop: HerdingPopulation, ed: float, dt: float) -> HerdingPopulation:
    """Synchronous herding update driven by the pre-step value of ED.

    Agents whose sign opposes ED (strict inequality: ED == 0 or NaN accrues
    nothing) gain dt * |ED| pressure; any pressure at or above its
    threshold flips the sign and resets to zero.  ``pop`` is left unchanged;
    the result shares every array the step did not change.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    sigma, pressure, total = pop.sigma, pop.pressure, pop.total
    if ed > 0.0 or ed < 0.0:
        opposed = sigma < 0.0 if ed > 0.0 else sigma > 0.0
        inc = dt * abs(ed)
        if inc < math.inf:
            # True * inc is inc and p + False * inc is p (pressures are >= +0)
            pressure = opposed * inc + pressure
        else:  # 0 * inf is NaN
            pressure = np.where(opposed, pressure + inc, pressure)
    switch = (pressure >= pop.threshold).nonzero()[0]
    if switch.size:
        flipped = sigma[switch]
        total -= 2.0 * sum(flipped.tolist())  # few agents flip: a list sums them fastest
        sigma = sigma.copy()
        sigma[switch] = -flipped
        if pressure is pop.pressure:
            pressure = pressure.copy()
        pressure[switch] = 0.0
        sigma.setflags(write=False)
    if pressure is not pop.pressure:
        pressure.setflags(write=False)
    return HerdingPopulation._of(sigma, pressure, pop.threshold, total)


def switch_count(before: HerdingPopulation, after: HerdingPopulation) -> int:
    """Number of agents whose sign differs between two population states."""
    if before.sigma is after.sigma:
        return 0
    return int(np.count_nonzero(before.sigma != after.sigma))
