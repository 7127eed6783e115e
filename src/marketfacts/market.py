"""Price adjustment: the disequilibrium log-price update
S' = S + F(ED) + G(ED) * eta."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericalBlowup, finite_number

# guard before exp() overflows when converting log price back to price
LOG_PRICE_LIMIT = 700.0

CONSTANT = "constant"
PROPORTIONAL = "proportional"


@dataclass(frozen=True)
class PriceRule:
    """Parameters of the price update: market-maker speed ``gamma`` of the
    drift F, and the ``noise`` form of the amplitude G with its scale
    ``sigma0`` (constant) or ``delta`` (ED-proportional).  :func:`price_step`
    states F and G.
    """

    gamma: float = 0.0
    noise: str = CONSTANT
    sigma0: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "sigma0", "delta"):
            value = finite_number(getattr(self, name), f"price_rule.{name}", low=0.0)
            object.__setattr__(self, name, value)
        if self.noise not in (CONSTANT, PROPORTIONAL):
            raise ConfigError(f"unknown noise spec {self.noise!r}", field="price_rule.noise")


def price_step(log_price: float, ed: float, dt: float, rule: PriceRule, eta: float) -> float:
    """The log price after one step of size ``dt`` at excess demand ``ed``;
    ``eta`` is a standard normal draw supplied by the caller's RNG stream.

    Linear drift F = gamma * dt * ED, and either constant noise
    G = sigma0 * sqrt(dt) or ED-proportional noise G = delta * sqrt(dt) * |ED|.
    The sqrt(dt) scaling makes the price noise consistent under refinement
    of dt (its variance per unit time does not depend on dt).  The herding
    signal is not: its ED noise is one draw per step (see
    :class:`~marketfacts.environment.HerdingConfig`).
    """
    if not dt > 0.0:  # also true for NaN
        raise ValueError(f"dt must be > 0, got {dt}")
    if rule.noise == CONSTANT:
        amplitude = rule.sigma0 * math.sqrt(dt)
    else:
        amplitude = rule.delta * math.sqrt(dt) * abs(ed)
    s_next = log_price + rule.gamma * dt * ed + amplitude * eta
    if not abs(s_next) <= LOG_PRICE_LIMIT:  # also true for NaN
        raise NumericalBlowup(f"log price {s_next} out of range")
    return s_next
