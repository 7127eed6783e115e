"""Threshold-herding environment: agents hold a position sign in {-1, +1}
and accumulate pressure while their position opposes the aggregated excess
demand; crossing an individual threshold flips the position.

The population is stored as cohorts, so a step costs one float addition per
cohort, not per agent: every opposed agent gains the same pressure, so
agents of one sign that share a pressure share their future bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, finite_number, integer


@dataclass(frozen=True)
class HerdingConfig:
    """Environment parameters of the cross_herding model.

    ``ed_noise_std`` perturbs the herding signal only (exogenous order
    flow seen by the agents); the price responds to the population's true
    aggregate position.  Without this perturbation the herding rule
    freezes in full consensus.  The perturbation is one draw per step with
    this std whatever the step size, so its effect on the agents depends
    on ``dt``: over a fixed stretch of model time, a smaller ``dt`` sums
    more draws.
    """

    n_agents: int = 1000
    threshold_min: float = 1.0
    threshold_max: float = 2.0
    ed_noise_std: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_agents", integer(self.n_agents, "herding.n_agents", low=1))
        for name in ("threshold_min", "threshold_max"):
            object.__setattr__(self, name, finite_number(getattr(self, name), f"herding.{name}"))
        ed_noise_std = finite_number(self.ed_noise_std, "herding.ed_noise_std", low=0.0)
        object.__setattr__(self, "ed_noise_std", ed_noise_std)
        if not 0.0 < self.threshold_min <= self.threshold_max:
            raise ConfigError(
                f"invalid band [{self.threshold_min}, {self.threshold_max}]",
                field="herding.threshold_min",
            )


class HerdingPopulation:
    """The agents as cohorts, advanced in place by :func:`herding_step`.

    ``cohorts[sign]`` lists the cohorts of the agents holding that sign
    (1 or -1), newest last.  A cohort is ``[pressure, thresholds]``: the
    pressure its agents share and their thresholds, sorted.  ``total`` is
    the exact sum of the signs and ``flips`` the number of agents the last
    step flipped.
    """

    __slots__ = ("cohorts", "size", "total", "flips")

    def __init__(self, cohorts: dict):
        self.cohorts = cohorts
        up, down = (sum(len(thresholds) for _, thresholds in cohorts[sign]) for sign in (1, -1))
        self.size, self.total, self.flips = up + down, up - down, 0

    @classmethod
    def random(cls, config: HerdingConfig, rng: np.random.Generator) -> "HerdingPopulation":
        """Uniform random signs, zero pressure, thresholds uniform in the config's band.

        Draw order (signs first, then thresholds) is part of the
        reproducibility contract.
        """
        n = config.n_agents
        sigma = rng.choice([-1.0, 1.0], size=n)
        threshold = rng.uniform(config.threshold_min, config.threshold_max, size=n)
        sides = {sign: np.sort(threshold[sigma == sign]).tolist() for sign in (1, -1)}
        return cls({sign: [[0.0, thresholds]] if thresholds else []
                    for sign, thresholds in sides.items()})


def population_excess_demand(pop: HerdingPopulation) -> float:
    """Aggregated excess demand with ed_i = sigma_i: the mean position."""
    # the carried sign sum is exact, so this is the mean of the signs bit for bit
    return pop.total / pop.size


def herding_step(pop: HerdingPopulation, ed: float, dt: float) -> HerdingPopulation:
    """Synchronous herding update driven by the pre-step value of ED.

    Agents whose sign opposes ED (strict inequality: ED == 0 or NaN accrues
    nothing) gain dt * |ED| pressure; any pressure at or above its
    threshold flips the sign and resets to zero.  ``pop`` is advanced in
    place and returned.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    flipped = []
    if ed > 0.0 or ed < 0.0:
        sign = -1 if ed > 0.0 else 1  # the opposed sign
        inc = dt * abs(ed)
        side, live = pop.cohorts[sign], []
        for cohort in side:
            cohort[0] = pressure = inc + cohort[0]
            thresholds = cohort[1]
            if thresholds[0] <= pressure:  # pressure >= threshold flips a sorted prefix
                k = bisect_right(thresholds, pressure)
                flipped += thresholds[:k]
                del thresholds[:k]
                if not thresholds:
                    continue
            live.append(cohort)
        side[:] = live
    pop.flips = len(flipped)
    if flipped:
        pop.total -= 2 * sign * pop.flips
        # the flipped agents restart at 0.0 beside any of the new sign still
        # there: agents that share a pressure share their future
        other = pop.cohorts[-sign]
        if other and other[-1][0] == 0.0:
            flipped += other.pop()[1]
        flipped.sort()
        other.append([0.0, flipped])
    return pop


def switch_count(before: HerdingPopulation, after: HerdingPopulation) -> int:
    """Number of agents the herding step from ``before`` to ``after`` flipped.

    :func:`herding_step` advances a population in place, so ``before`` is
    ``after``; the count is the one ``after`` carries.
    """
    return after.flips
