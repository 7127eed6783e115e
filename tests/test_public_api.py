"""The names ``import marketfacts`` exports, pinned so that adding or removing
one is a deliberate change to this list."""

import types

import marketfacts

PUBLIC_NAMES = {
    # timeseries
    "PriceSeries", "absolute_returns", "log_returns",
    # stats
    "TailFit", "acf_profile", "autocorrelation",
    "excess_kurtosis", "fit_power_decay", "full_report", "hill_estimator",
    "histogram_data", "mean_var", "qq_data", "skewness",
    # market
    "PriceRule", "price_step",
    # agents
    "FWParams", "chartist_demand", "franke_westerhoff_ED", "fundamentalist_demand",
    # environment
    "HerdingPopulation", "herding_step", "population_excess_demand",
    # sim
    "RunConfig", "SimOutput", "cross_herding_defaults", "run_ensemble", "run_simulation",
    # ingest
    "read_prices", "read_prices_report",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(marketfacts).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
