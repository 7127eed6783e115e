"""Agent designs: fundamentalist and chartist excess demands, plus the
two-agent (chartist + fundamentalist) aggregation with additive noise."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, finite_number

PerStep = Union[float, Sequence[float]]


def _at(value: float | tuple[float, ...], step: int) -> float:
    """Resolve a constant-or-per-step parameter at a given step."""
    return value if isinstance(value, float) else value[step]


@dataclass(frozen=True)
class FWParams:
    """Two-agent market: weights (constant or per-step), fundamental value
    and the std of the Gaussian noise added to the aggregated demand.

    Weights may be zero so that single-agent-type closed loops can be
    expressed, but never negative; endogenous strategy switching is out of
    scope.
    """

    a: PerStep = 1.0
    b: PerStep = 1.0
    log_fundamental: PerStep = 0.0
    noise_std: float = 0.0

    def __post_init__(self):
        noise_std = finite_number(self.noise_std, "fw.noise_std")
        if noise_std < 0.0:
            raise ConfigError(f"must be >= 0, got {noise_std}", field="fw.noise_std")
        object.__setattr__(self, "noise_std", noise_std)
        for name in ("a", "b", "log_fundamental"):
            value, field = getattr(self, name), f"fw.{name}"
            value = value.tolist() if isinstance(value, np.ndarray) else value
            schedule = isinstance(value, (list, tuple))
            values = tuple(finite_number(v, field) for v in (value if schedule else [value]))
            if name != "log_fundamental" and min(values, default=0.0) < 0.0:
                raise ConfigError("every value must be >= 0", field=field)
            object.__setattr__(self, name, values if schedule else values[0])

    def weights_at(self, step: int) -> tuple[float, float]:
        return _at(self.a, step), _at(self.b, step)

    def fundamental_at(self, step: int) -> float:
        return _at(self.log_fundamental, step)


def fundamentalist_demand(a: float, log_fundamental: float, log_price: float) -> float:
    """a * (P_F - P): buy below the fundamental value, sell above it."""
    return a * (log_fundamental - log_price)


def chartist_demand(b: float, log_price_now: float, log_price_prev: float) -> float:
    """b * (P_k - P_{k-1}): extrapolate the most recent log-price change."""
    return b * (log_price_now - log_price_prev)


def franke_westerhoff_ED(ed_chartist: float, ed_fundamentalist: float,
                         params: FWParams, noise_draw: float = 0.0) -> float:
    """Equal-weight aggregation of the two demands plus additive noise.

    ``noise_draw`` is a standard normal draw from the run's RNG stream
    (pass 0 when noise_std == 0).
    """
    return 0.5 * (ed_chartist + ed_fundamentalist) + params.noise_std * noise_draw
