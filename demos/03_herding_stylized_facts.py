"""Fat tails and volatility clustering from the threshold-herding market.

Runs the default herding configuration (1000 two-state agents, pressure
accumulation against the majority, threshold switching) and checks the three
classic regularities of daily returns:

* excess kurtosis > 0 (fat tails),
* raw-return autocorrelation inside the white-noise band,
* absolute-return autocorrelation far above the band, decaying slowly.
"""

import math

from marketfacts import (
    absolute_returns,
    acf_profile,
    autocorrelation,
    excess_kurtosis,
    fit_power_decay,
)
from marketfacts.sim import cross_herding_defaults, run_simulation

config = cross_herding_defaults(seed=12, steps=100_000)
print(f"running {config.steps} steps, {config.herding.n_agents} agents ...")
out = run_simulation(config)
raw = out.returns
abs_r = absolute_returns(raw)
n = len(raw)
band = 1.0 / math.sqrt(n)

print()
print(f"excess kurtosis        {excess_kurtosis(raw):+.3f}   (Gaussian: 0)")
print(f"white-noise band       +/-{band:.5f}  (1/sqrt(n))")
print(f"{'lag':>4s} {'raw ACF':>10s} {'|r| ACF':>10s}")
for lag in (1, 5, 10, 20, 50, 100):
    print(f"{lag:4d} {autocorrelation(raw, lag):>10.5f} "
          f"{autocorrelation(abs_r, lag):>10.5f}")

fit = fit_power_decay(range(1, 101), acf_profile(abs_r, 100))
print()
print(f"absolute-return ACF decays like lag^-{fit.exponent:.3f} "
      f"({fit.n_points} positive lags in fit)")
print(f"agent switches during run: {out.diagnostics['switch_count']}")
