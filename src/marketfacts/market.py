"""Price adjustment: aggregated excess demand and the disequilibrium
log-price update S' = S + F(S, ED) + G(S, ED) * eta."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoAgents, NumericalBlowup

# guard before exp() overflows when converting log price back to price
LOG_PRICE_LIMIT = 700.0

CONSTANT = "constant"
PROPORTIONAL = "proportional"


@dataclass(frozen=True)
class MarketState:
    """Log price S_k, step counter k and step size dt of a running market."""

    log_price: float
    step_index: int = 0
    dt: float = 1.0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")


@dataclass(frozen=True)
class PriceRule:
    """Drift F and noise amplitude G of the price update.

    Linear drift F = gamma * dt * ED (market-maker speed gamma), and either
    constant noise G = sigma0 * sqrt(dt) or ED-proportional noise
    G = delta * sqrt(dt) * |ED|.  The sqrt(dt) scaling keeps dt-refinement
    consistent with a diffusion limit.
    """

    gamma: float = 0.0
    noise: str = CONSTANT
    sigma0: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not (self.gamma >= 0.0 and self.sigma0 >= 0.0 and self.delta >= 0.0):
            raise ValueError("gamma, sigma0 and delta must be >= 0")
        if self.noise not in (CONSTANT, PROPORTIONAL):
            raise ValueError(f"unknown noise spec {self.noise!r}")

    def drift(self, log_price: float, ed: float, dt: float) -> float:
        return self.gamma * dt * ed

    def noise_amplitude(self, log_price: float, ed: float, dt: float) -> float:
        if self.noise == CONSTANT:
            return self.sigma0 * math.sqrt(dt)
        return self.delta * math.sqrt(dt) * abs(ed)


def aggregate_excess_demand(demands) -> float:
    """Mean of the individual excess demands."""
    demands = np.asarray(demands, dtype=float)
    if demands.size == 0:
        raise NoAgents("cannot aggregate an empty demand list")
    return float(demands.mean())


def price_step(state: MarketState, ed: float, rule: PriceRule, eta: float) -> MarketState:
    """One update of the log price; ``eta`` is a standard normal draw
    supplied by the caller's RNG stream."""
    s, dt = state.log_price, state.dt
    s_next = s + rule.drift(s, ed, dt) + rule.noise_amplitude(s, ed, dt) * eta
    if not abs(s_next) <= LOG_PRICE_LIMIT:  # also true for NaN
        raise NumericalBlowup(
            f"log price {s_next} out of range at step {state.step_index}",
            step_index=state.step_index,
        )
    # built without __post_init__: dt was checked when ``state`` was built
    successor = object.__new__(MarketState)
    successor.__dict__.update(log_price=s_next, step_index=state.step_index + 1, dt=dt)
    return successor
