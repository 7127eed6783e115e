"""Seeded Monte-Carlo simulation runs wiring agents, environment and the
price rule together.

Reproducibility contract
------------------------
The RNG is numpy's PCG64 via ``np.random.default_rng(seed)``; replication r
of an ensemble uses ``seed + r``.  All stochastic draws come from the run's
single stream in this fixed order:

* initialization (cross_herding): position signs, then thresholds;
* each step: the model's own normal, then the price noise eta (always
  drawn).  fw_two_agent draws its additive demand noise only when
  ``fw.noise_std`` > 0, and cross_herding the perturbation of its herding
  signal only when ``herding.ed_noise_std`` > 0.

Standard normals come from the stream in blocks of ``NORMAL_BLOCK``, drawn
as the run needs them.  A block holds exactly the values, in exactly the
order, that as many single draws would give, so the outputs are those of
drawing one at a time.

Given (config, seed) every output bit is determined, independent of how
many ensemble workers run in parallel.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import (
    FWParams,
    chartist_demand,
    franke_westerhoff_ED,
    fundamentalist_demand,
)
from .environment import (
    HerdingConfig,
    HerdingPopulation,
    herding_step,
    population_excess_demand,
    switch_count,
)
from .errors import ConfigError, MarketFactsError, NumericalBlowup, finite_number, integer
from .ingest import read_json
from .market import LOG_PRICE_LIMIT, PriceRule, price_step
from .output import write_columns, write_json

FW_TWO_AGENT = "fw_two_agent"
CROSS_HERDING = "cross_herding"

# standard normals per block drawn for a run; a block costs
# O(NORMAL_BLOCK) memory however long the run
NORMAL_BLOCK = 4096


@dataclass(frozen=True)
class RunConfig:
    """Full description of one simulation run."""

    model: str
    steps: int
    dt: float = 1.0
    seed: int = 0
    initial_log_price: float = 0.0
    burn_in: typing.Optional[int] = None  # None -> 10% of steps
    price_rule: PriceRule = field(default_factory=PriceRule)
    fw: FWParams = field(default_factory=FWParams)
    herding: HerdingConfig = field(default_factory=HerdingConfig)

    def __post_init__(self):
        if self.model not in (FW_TWO_AGENT, CROSS_HERDING):
            raise ConfigError(f"unknown model {self.model!r}", field="model")
        object.__setattr__(self, "steps", integer(self.steps, "steps", low=1))
        for name, check in (("dt", finite_number), ("seed", integer),
                            ("initial_log_price", finite_number)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        burn_in = self.steps // 10 if self.burn_in is None else self.burn_in
        object.__setattr__(self, "burn_in", integer(burn_in, "burn_in", low=0))
        if self.dt <= 0.0:
            raise ConfigError("must be > 0", field="dt")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("must be a 64-bit unsigned integer", field="seed")
        if abs(self.initial_log_price) > LOG_PRICE_LIMIT:
            raise ConfigError(f"must be in [{-LOG_PRICE_LIMIT}, {LOG_PRICE_LIMIT}], "
                              f"got {self.initial_log_price}", field="initial_log_price")
        if self.steps <= self.burn_in:
            raise ConfigError(
                f"steps ({self.steps}) must exceed burn_in ({self.burn_in})",
                field="burn_in",
            )
        for f in dataclasses.fields(self.fw):
            schedule = getattr(self.fw, f.name)
            if isinstance(schedule, tuple) and len(schedule) < self.steps:
                raise ConfigError(f"{len(schedule)} per-step values for {self.steps} steps",
                                  field=f"fw.{f.name}")


@dataclass(frozen=True)
class SimOutput:
    """Trajectory, post-burn-in returns and per-run diagnostics."""

    log_prices: np.ndarray
    returns: np.ndarray  # read-only
    diagnostics: dict
    seed: int


def _from_dict(cls, doc, path: str = ""):
    """Build config dataclass ``cls`` from JSON object ``doc`` at dotted ``path``;
    each config block checks the type and range of its own values."""
    if not isinstance(doc, dict):
        raise ConfigError("must be a JSON object", field=path or None)
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}", field=path or None)
    kwargs = dict(doc)
    for f in fields:
        key = f"{path}.{f.name}" if path else f.name
        if f.name in doc and dataclasses.is_dataclass(f.default_factory):  # a nested section
            kwargs[f.name] = _from_dict(f.default_factory, doc[f.name], key)
        elif f.name not in doc and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError("required", field=key)
    return cls(**kwargs)


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig from a plain (JSON-decoded) dictionary."""
    return _from_dict(RunConfig, d)


def load_config(path) -> RunConfig:
    return config_from_dict(read_json(path))


def cross_herding_defaults(seed: int = 0, steps: int = 100_000) -> RunConfig:
    """Calibrated default configuration producing fat tails and volatility
    clustering in the threshold-herding market."""
    return RunConfig(
        model=CROSS_HERDING,
        steps=steps,
        dt=0.02,
        seed=seed,
        price_rule=PriceRule(noise="proportional", delta=0.03),
    )


@contextlib.contextmanager
def _allocating(field: str, size: int):
    """Turn numpy's refusal to allocate an array of ``size`` items (too big to
    address or for a C long, or out of memory) into a ConfigError naming ``field``."""
    try:
        yield
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"{size} is too large to allocate: {exc}", field=field) from exc


def _normals(rng: np.random.Generator):
    """Callable returning the next standard normal of ``rng``, which it draws
    in blocks of NORMAL_BLOCK as they are needed."""
    blocks = map(rng.standard_normal, itertools.repeat(NORMAL_BLOCK))
    return itertools.chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__


def _fw_prices(config: RunConfig, rng: np.random.Generator):
    """Franke-Westerhoff log prices S_1, S_2, ...: each step the mean of
    fundamentalist and chartist demand plus additive noise moves the price."""
    fw, dt, rule = config.fw, config.dt, config.price_rule
    normal = _normals(rng)
    noisy = fw.noise_std > 0.0
    s = prev = config.initial_log_price  # no invented pre-history: initial chartist demand 0
    for k in range(config.steps):
        a_k, b_k = fw.weights_at(k)
        ed_f = fundamentalist_demand(a_k, fw.fundamental_at(k), s)
        ed_c = chartist_demand(b_k, s, prev)
        ed = franke_westerhoff_ED(ed_c, ed_f, fw, normal() if noisy else 0.0)
        prev, s = s, price_step(s, ed, dt, rule, normal())
        yield s


def _cross_prices(config: RunConfig, rng: np.random.Generator, diagnostics: dict):
    """Cross herding log prices S_1, S_2, ...: each step the mean position of
    a threshold-herding population is the excess demand; the population
    takes one herding step of size dt on it, then the price moves.  Once the
    last price is taken, records the flips in ``diagnostics``."""
    h, dt, rule = config.herding, config.dt, config.price_rule
    with _allocating("herding.n_agents", h.n_agents):
        pop = HerdingPopulation.random(h, rng)
    normal = _normals(rng)
    noisy = h.ed_noise_std > 0.0
    s, switches = config.initial_log_price, 0
    for _ in range(config.steps):
        ed = population_excess_demand(pop)
        ed_env = ed + h.ed_noise_std * normal() if noisy else ed
        new_pop = herding_step(pop, ed_env, dt)
        switches += switch_count(pop, new_pop)
        pop = new_pop
        s = price_step(s, ed, dt, rule, normal())
        yield s
    diagnostics.update(switch_count=switches, n_agents=h.n_agents)


def run_simulation(config: RunConfig) -> SimOutput:
    """Run one seeded simulation and return its trajectory and returns.

    The model's function yields the log prices S_1, ..., S_steps in order;
    a :class:`NumericalBlowup` it raises at step k (the step from S_k to
    S_{k+1}) is named with k and the seed.
    """
    rng = np.random.default_rng(config.seed)
    diagnostics = {"model": config.model, "steps": config.steps, "blowup": None}
    with _allocating("steps", config.steps):
        log_prices = np.empty(config.steps + 1)
    log_prices[0] = config.initial_log_price
    if config.model == FW_TWO_AGENT:
        prices = _fw_prices(config, rng)
    else:
        prices = _cross_prices(config, rng, diagnostics)
    k = 0  # S_k is the last price stored, so step k is under way
    try:
        for k, s in enumerate(prices, 1):
            log_prices[k] = s
    except NumericalBlowup as exc:
        exc.step_index = k
        exc.args = (f"{exc} at step {k} (seed {config.seed})",)
        raise
    returns = np.diff(log_prices[config.burn_in:])
    returns.setflags(write=False)
    return SimOutput(
        log_prices=log_prices,
        returns=returns,
        diagnostics=diagnostics,
        seed=config.seed,
    )


def run_ensemble(config: RunConfig, replications: int, workers: int = 1) -> list[SimOutput]:
    """Independent replications with seeds base_seed + r, r = 0..R-1.

    Results come back in replication order regardless of completion order,
    so parallel and sequential execution are interchangeable.  The
    arguments are checked before the first replication runs.
    """
    replications = integer(replications, "replications", low=1)
    workers = integer(workers, "workers", low=1)
    last_seed = config.seed + replications - 1
    if last_seed >= 2**64:
        raise ConfigError(f"replication {replications - 1} would run with seed {last_seed}, "
                          "which is not a 64-bit unsigned integer", field="seed")
    configs = [replace(config, seed=config.seed + r) for r in range(replications)]
    # a worker beyond one per replication or per usable CPU would only start
    # and wait, and the pool starts all of its workers at once
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, replications, cpus)
    if workers == 1:
        return [run_simulation(c) for c in configs]
    # imported here: the pool machinery (multiprocessing, sockets, logging)
    # would otherwise load with every command
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_simulation, c) for c in configs]
        try:  # the pool's exit waits for its workers, so a failure stops them first
            for future in as_completed(futures):
                future.result()
        except BrokenExecutor as exc:  # the pool has stopped the other workers itself
            raise MarketFactsError("a pool worker ended without a result") from exc
        except BaseException:
            for process in pool._processes.values():
                process.terminate()
            raise
        return [future.result() for future in futures]


def write_sim_output(output: SimOutput, out_dir, stem: str) -> list[str]:
    """Write log-price and return CSVs plus a JSON diagnostics sidecar, in
    the byte-stable format of :mod:`marketfacts.output`."""
    paths = [os.path.join(out_dir, f"{stem}_{name}")
             for name in ("logprices.csv", "returns.csv", "diagnostics.json")]
    logprices, returns, diagnostics = paths
    write_columns(logprices, ("step", "log_price"),
                  range(len(output.log_prices)), output.log_prices)
    write_columns(returns, ("index", "log_return"),
                  range(len(output.returns)), output.returns)
    write_json(diagnostics, {**output.diagnostics, "seed": output.seed})
    return paths
