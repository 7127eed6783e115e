"""Agent-based market simulation and stylized-fact statistics.

Submodules:

* :mod:`marketfacts.timeseries` -- the price series type and return transforms
* :mod:`marketfacts.stats` -- moments, Hill estimator, ACF, power-law fits
* :mod:`marketfacts.market` -- the price update rule
* :mod:`marketfacts.agents` -- fundamentalist/chartist demands
* :mod:`marketfacts.environment` -- threshold-herding population
* :mod:`marketfacts.sim` -- seeded Monte-Carlo runs and ensembles
* :mod:`marketfacts.ingest` -- daily OHLC CSV ingestion
* :mod:`marketfacts.output` -- the byte-stable output files
* :mod:`marketfacts.cli` -- command-line front end
"""

from .timeseries import PriceSeries, absolute_returns, log_returns
from .stats import (
    TailFit,
    acf_profile,
    autocorrelation,
    excess_kurtosis,
    fit_power_decay,
    full_report,
    hill_estimator,
    histogram_data,
    mean_var,
    qq_data,
    skewness,
)
from .market import PriceRule, price_step
from .agents import (
    FWParams,
    chartist_demand,
    franke_westerhoff_ED,
    fundamentalist_demand,
)
from .environment import (
    HerdingPopulation,
    herding_step,
    population_excess_demand,
)
from .sim import (
    RunConfig,
    SimOutput,
    cross_herding_defaults,
    run_ensemble,
    run_simulation,
)
from .ingest import read_prices, read_prices_report

__version__ = "0.1.0"
