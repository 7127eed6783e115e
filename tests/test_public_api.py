"""The names ``import marketfacts`` exports, pinned so that adding or removing
one is a deliberate change to this list, and the module of each building
block's config."""

import dataclasses
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


def test_each_building_block_owns_its_config():
    from marketfacts import agents, environment, market, sim

    assert environment.HerdingConfig.__module__ == "marketfacts.environment"
    assert agents.FWParams.__module__ == "marketfacts.agents"
    assert market.PriceRule.__module__ == "marketfacts.market"
    assert sim.HerdingConfig is environment.HerdingConfig  # old imports keep working
    defined_in_sim = {name for name, value in vars(sim).items()
                      if dataclasses.is_dataclass(value) and value.__module__ == sim.__name__}
    assert defined_in_sim == {"RunConfig", "SimOutput"}
