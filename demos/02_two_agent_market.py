"""Price dynamics of the two-agent (fundamentalist + chartist) market.

Three short experiments with the deterministic skeleton (all noise off):

1. fundamentalists alone pull the log price to the fundamental value,
2. chartists alone amplify any displacement geometrically,
3. the mixed market with noise produces an irregular price path.
"""

from marketfacts import (
    FWParams,
    PriceRule,
    chartist_demand,
    fundamentalist_demand,
    price_step,
)
from marketfacts.sim import FW_TWO_AGENT, RunConfig, run_simulation

print("=== 1. Fundamentalists restore the price ===")
a, log_fundamental = 1.0, 2.0
rule, dt = PriceRule(gamma=0.5), 1.0
s = 0.0  # log price
for k in range(30):
    ed = fundamentalist_demand(a, log_fundamental, s)
    s = price_step(s, ed, dt, rule, eta=0.0)
    if k % 5 == 0:
        print(f"step {k:2d}: log price {s:.6f}  (target 2.0)")

print()
print("=== 2. Chartists amplify a displacement ===")
b = 2.1
s, prev = 0.1, 0.0
for k in range(10):
    ed = chartist_demand(b, s, prev)
    prev = s
    s = price_step(s, ed, dt, rule, eta=0.0)
    print(f"step {k}: displacement {s - prev:+.6f}"
          "  (grows by b*gamma*dt = 1.05 each step)")

print()
print("=== 3. Mixed market with demand and price noise ===")
config = RunConfig(
    model=FW_TWO_AGENT,
    steps=2000,
    dt=0.1,
    seed=7,
    price_rule=PriceRule(gamma=1.0, sigma0=0.05),
    fw=FWParams(a=1.0, b=0.8, log_fundamental=0.0, noise_std=0.3),
)
out = run_simulation(config)
lp = out.log_prices
print(f"simulated {config.steps} steps; "
      f"log price range [{lp.min():.3f}, {lp.max():.3f}], "
      f"return std {out.returns.values.std():.5f}")
print("diagnostics:", out.diagnostics)
