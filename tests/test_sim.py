import bisect
import codecs
import collections
import dataclasses
import hashlib
import itertools
import json
import math
import re
import typing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketfacts import sim
from marketfacts.agents import (
    FWParams,
    chartist_demand,
    franke_westerhoff_ED,
    fundamentalist_demand,
)
from marketfacts.cli import main
from marketfacts.errors import ConfigError, NumericalBlowup, SchemaError, UnreadableFile
from marketfacts.environment import (
    HerdingPopulation,
    herding_step,
    population_excess_demand,
    switch_count,
)
from marketfacts.market import PriceRule, price_step
from marketfacts.stats import acf_profile, autocorrelation, excess_kurtosis, mean_var
from marketfacts.timeseries import absolute_returns
from marketfacts.sim import (
    CROSS_HERDING,
    FW_TWO_AGENT,
    NORMAL_BLOCK,
    HerdingConfig,
    RunConfig,
    config_from_dict,
    cross_herding_defaults,
    load_config,
    run_ensemble,
    run_simulation,
    write_sim_output,
)


def fw_config(**kwargs):
    base = dict(
        model=FW_TWO_AGENT,
        steps=500,
        dt=0.1,
        seed=123,
        price_rule=PriceRule(gamma=1.0, sigma0=0.1),
        fw=FWParams(a=1.0, b=0.5, log_fundamental=0.0, noise_std=0.2),
    )
    base.update(kwargs)
    return RunConfig(**base)


class TestRunConfig:
    def test_burn_in_defaults_to_ten_percent(self):
        assert fw_config(steps=1000).burn_in == 100

    def test_validation_errors_carry_field(self):
        with pytest.raises(ConfigError) as e:
            RunConfig(model="nope", steps=10)
        assert e.value.field == "model"
        with pytest.raises(ConfigError) as e:
            fw_config(steps=0)
        assert e.value.field == "steps"
        with pytest.raises(ConfigError) as e:
            fw_config(steps=10, burn_in=10)
        assert e.value.field == "burn_in"

    def test_from_dict_roundtrip(self):
        cfg = cross_herding_defaults(seed=5, steps=200)
        again = config_from_dict(dataclasses.asdict(cfg))
        assert again == cfg

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": FW_TWO_AGENT, "steps": 10, "bogus": 1})

    def test_from_dict_nested_field_path(self):
        with pytest.raises(ConfigError) as e:
            config_from_dict(
                {"model": CROSS_HERDING, "steps": 10,
                 "herding": {"n_agents": 0}}
            )
        assert "herding" in str(e.value)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": FW_TWO_AGENT, "steps": 50, "seed": 9}))
        assert load_config(path).seed == 9

    def test_load_config_byte_order_mark_reads_as_absent(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(codecs.BOM_UTF8 + json.dumps({"model": FW_TWO_AGENT, "steps": 50,
                                                       "seed": 9}).encode())
        assert load_config(path).seed == 9

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        # the third document nests past the JSON decoder's recursion limit; in
        # the last a byte order mark and 45 bytes come before the bad byte
        for data, expected in [
            (b"{not json", f"{path}: not valid JSON: Expecting property name"),
            (b"[" * 100_000, f"{path}: not valid JSON: "),
            (codecs.BOM_UTF8 + b'{"model": "fw_two_agent", "steps": 50, "x": "\xff"}',
             f"{path}: not UTF-8 text: invalid start byte at byte 48"),
        ]:
            path.write_bytes(data)
            with pytest.raises(SchemaError) as info:
                load_config(path)
            assert str(info.value).startswith(expected)

    def test_load_config_missing_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(UnreadableFile) as info:
            load_config(path)
        assert str(info.value) == f"{path}: No such file or directory"

    def test_load_config_repeated_key(self, tmp_path):
        # the last value would win silently: 50 steps where 10 were written first
        path = tmp_path / "cfg.json"
        for text, key in [('{"model": "fw_two_agent", "steps": 10, "steps": 50}', "steps"),
                          ('{"model": "fw_two_agent", "steps": 10, '
                           '"fw": {"a": 1.0, "b": 0.5, "a": 2.0}}', "a")]:
            path.write_text(text)
            with pytest.raises(SchemaError) as info:
                load_config(path)
            assert str(info.value) == f"{path}: key {key!r} repeated in one object"

    def test_from_dict_null_burn_in_is_default(self):
        cfg = config_from_dict({"model": FW_TWO_AGENT, "steps": 50, "burn_in": None})
        assert cfg.burn_in == 5

    def test_schedules_hashable_and_round_trip(self):
        walk = np.cumsum(np.random.default_rng(0).normal(0.0, 0.01, 500))
        cfg = fw_config(fw=FWParams(a=[1.0] * 500, b=0.5, log_fundamental=walk))
        assert hash(cfg) == hash(replace(cfg))
        assert config_from_dict(dataclasses.asdict(cfg)) == cfg
        assert config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    def test_schedule_container_keeps_bits(self):
        walk = np.cumsum(np.random.default_rng(1).normal(0.0, 0.01, 500))
        runs = [
            run_simulation(fw_config(fw=FWParams(a=1.0, b=0.5, log_fundamental=schedule,
                                                 noise_std=0.2))).log_prices.tobytes()
            for schedule in (walk.tolist(), tuple(walk.tolist()), walk)
        ]
        assert runs[0] == runs[1] == runs[2]


ROUND_TRIP_CONFIGS = {
    "fw_constant": fw_config(),
    "fw_scheduled": fw_config(fw=FWParams(a=[1.0 + 0.001 * k for k in range(500)], b=0.5,
                                          log_fundamental=[0.01 * k for k in range(600)],
                                          noise_std=0.0)),
    "cross": cross_herding_defaults(seed=5, steps=200),
    "cross_no_ed_noise": replace(cross_herding_defaults(seed=2**64 - 1, steps=300),
                                 burn_in=0, herding=HerdingConfig(ed_noise_std=0.0)),
}


@pytest.mark.parametrize("name", ROUND_TRIP_CONFIGS)
def test_config_round_trips_through_json(name):
    config = ROUND_TRIP_CONFIGS[name]
    assert config_from_dict(json.loads(json.dumps(dataclasses.asdict(config)))) == config


def _fw_doc(**overrides):
    doc = {"model": FW_TWO_AGENT, "steps": 10}
    doc.update(overrides)
    return doc


# (config, field the ConfigError names, message fragment)
BAD_CONFIGS = [
    (_fw_doc(dt=math.nan), "dt", "finite number"),
    (_fw_doc(price_rule={"gamma": math.inf}), "price_rule.gamma", "finite number"),
    (_fw_doc(steps=True), "steps", "type int"),
    (_fw_doc(steps=10.9), "steps", "type int"),
    (_fw_doc(steps="12"), "steps", "type int"),
    (_fw_doc(seed=1.5), "seed", "type int"),
    (_fw_doc(herding={"n_agents": 2.5}), "herding.n_agents", "type int"),
    (_fw_doc(herding={"ed_noise_std": math.nan}), "herding.ed_noise_std", "finite number"),
    (_fw_doc(fw={"a": [1.0] * 9}), "fw.a", "9 per-step values for 10 steps"),
    (_fw_doc(price_rule=[1]), "price_rule", "must be a JSON object"),
    (_fw_doc(fw={"b": [1.0, -0.5] + [1.0] * 8}), "fw.b", "every value must be >= 0$"),
    ({"model": "custom", "steps": 10}, "model", "unknown model 'custom'"),
    (_fw_doc(price_rule={"delta": -1.0}), "price_rule.delta", "must be >= 0, got -1.0$"),
    (_fw_doc(herding={"threshold_min": 3}), "herding.threshold_min",
     r"invalid band \[3\.0, 2\.0\]$"),
    (_fw_doc(burn_in=-1), "burn_in", "must be >= 0$"),
    (_fw_doc(initial_log_price=800.0), "initial_log_price",
     r"must be in \[-700\.0, 700\.0\], got 800\.0$"),
    (_fw_doc(fw={"noise_std": -1}), "fw.noise_std", "must be >= 0, got -1.0$"),
    (_fw_doc(fw={"a": -1}), "fw.a", "every value must be >= 0$"),
    (_fw_doc(price_rule={"gamma": -1}), "price_rule.gamma", "must be >= 0, got -1.0$"),
    (_fw_doc(price_rule={"sigma0": -1}), "price_rule.sigma0", "must be >= 0, got -1.0$"),
    (_fw_doc(price_rule={"noise": "garch"}), "price_rule.noise", "unknown noise spec 'garch'$"),
]


@pytest.mark.parametrize("doc, field, message", BAD_CONFIGS)
def test_bad_config_names_field(doc, field, message, tmp_path, capsys):
    with pytest.raises(ConfigError, match=message) as e:
        config_from_dict(doc)
    assert e.value.field == field
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"ConfigError: {field}: " in err
    assert "Traceback" not in err


NAN = math.nan

# (builder, error type, message fragment) of values the Python API must
# reject; NaN passes a plain ``x < 0`` check.  A ConfigError's fragment
# starts with the dotted path of its field.
BAD_API_VALUES = {
    "herding.ed_noise_std": (lambda: HerdingConfig(ed_noise_std=NAN), ConfigError,
                             "herding.ed_noise_std: must be a finite number, got nan"),
    "run.dt": (lambda: fw_config(dt=NAN), ConfigError, "dt: must be a finite number, got nan"),
    "run.initial_log_price": (lambda: fw_config(initial_log_price=NAN), ConfigError,
                              "initial_log_price: must be a finite number, got nan"),
    "rule.gamma": (lambda: PriceRule(gamma=NAN), ConfigError,
                   "price_rule.gamma: must be a finite number, got nan"),
    "rule.sigma0": (lambda: PriceRule(sigma0=NAN), ConfigError,
                    "price_rule.sigma0: must be a finite number, got nan"),
    "rule.delta": (lambda: PriceRule(delta=NAN), ConfigError,
                   "price_rule.delta: must be a finite number, got nan"),
    "fw.noise_std": (lambda: FWParams(noise_std=NAN), ConfigError,
                     "fw.noise_std: must be a finite number, got nan"),
    "fw.a_nan": (lambda: FWParams(a=NAN), ConfigError, "fw.a: must be a finite number, got nan"),
    "fw.a_negative": (lambda: FWParams(a=-1.0), ConfigError, "fw.a: every value must be >= 0"),
    "fw.b_inf": (lambda: FWParams(b=math.inf), ConfigError,
                 "fw.b: must be a finite number, got inf"),
    "fw.b_schedule": (lambda: FWParams(b=[1.0, -0.5]), ConfigError,
                      "fw.b: every value must be >= 0"),
    "fw.log_fundamental": (lambda: FWParams(log_fundamental=[0.0, NAN]), ConfigError,
                           "fw.log_fundamental: must be a finite number, got nan"),
    "state.dt": (lambda: price_step(0.0, 1.0, NAN, PriceRule(), 0.0), ValueError,
                 "dt must be > 0"),
    "herding_step.dt": (lambda: herding_step(HerdingPopulation.random(
                            HerdingConfig(n_agents=1), np.random.default_rng(0)), 1.0, NAN),
                        ValueError, "dt must be > 0"),
    "herding.threshold_max": (lambda: HerdingConfig(threshold_max=math.inf), ConfigError,
                              "herding.threshold_max: must be a finite number, got inf"),
    "herding.threshold_max_nan": (lambda: HerdingConfig(threshold_max=NAN), ConfigError,
                                  "herding.threshold_max: must be a finite number, got nan"),
}


@pytest.mark.parametrize("case", BAD_API_VALUES)
def test_python_api_rejects_bad_numbers(case):
    build, error, message = BAD_API_VALUES[case]
    with pytest.raises(error, match=message) as e:
        build()
    if error is ConfigError:
        assert message.startswith(f"{e.value.field}: ")


def _number_fields():
    """(block, JSON section, field name, integer?) for each number field of
    each config block, read from the type hints."""
    for cls, section in [(RunConfig, None), (PriceRule, "price_rule"), (FWParams, "fw"),
                         (HerdingConfig, "herding")]:
        for name, hint in typing.get_type_hints(cls).items():
            kinds = typing.get_args(hint) or (hint,)  # Optional and per-step unions
            if int in kinds or float in kinds:
                yield cls, section, name, int in kinds


NUMBER_FIELDS = list(_number_fields())


@pytest.mark.parametrize("cls, section, name, is_int", NUMBER_FIELDS,
                         ids=[f"{s or 'run'}.{n}" for _, s, n, _ in NUMBER_FIELDS])
def test_every_number_field_checks_its_type(cls, section, name, is_int):
    path = f"{section}.{name}" if section else name
    message = f"^{re.escape(path)}: must be {'of type int' if is_int else 'a finite number'}, got "
    run = {"model": FW_TWO_AGENT, "steps": 10}
    for bad in [NAN, math.inf, -math.inf, True, "1", None, {"x": 1.0}] + [2.5] * is_int:
        if section is None:
            if name == "burn_in" and bad is None:  # null asks for the default
                continue
            doc, build = {**run, name: bad}, lambda: RunConfig(**{**run, name: bad})
        else:
            doc, build = {**run, section: {name: bad}}, lambda: cls(**{name: bad})
        for make in (build, lambda: config_from_dict(doc)):
            with pytest.raises(ConfigError, match=message) as e:
                make()
            assert e.value.field == path


def test_number_fields_cover_every_block():
    assert {(s, n) for _, s, n, _ in NUMBER_FIELDS} == {
        (None, "steps"), (None, "dt"), (None, "seed"), (None, "initial_log_price"),
        (None, "burn_in"), ("price_rule", "gamma"), ("price_rule", "sigma0"),
        ("price_rule", "delta"), ("fw", "a"), ("fw", "b"), ("fw", "log_fundamental"),
        ("fw", "noise_std"), ("herding", "n_agents"), ("herding", "threshold_min"),
        ("herding", "threshold_max"), ("herding", "ed_noise_std")}


@pytest.mark.parametrize("schedule, got", [
    ([1.0, [2.0], 3.0], "[2.0]"), ([1.0, NAN], "nan"), ([1.0, "2"], "'2'"),
    ([1.0, False], "False"), (np.ones((2, 2)), "[1.0, 1.0]"),
], ids=["ragged", "nan", "string", "bool", "two_d"])
def test_schedule_entries_are_checked(schedule, got):
    message = f"^fw.a: must be a finite number, got {re.escape(got)}$"
    for make in (lambda: FWParams(a=schedule),
                 lambda: config_from_dict({"model": FW_TWO_AGENT, "steps": 3,
                                           "fw": {"a": schedule}})):
        with pytest.raises(ConfigError, match=message) as e:
            make()
        assert e.value.field == "fw.a"


def test_numpy_scalars_are_stored_as_python_numbers():
    config = RunConfig(
        model=FW_TWO_AGENT, steps=np.int64(20), dt=np.float32(0.5), seed=np.uint64(7),
        initial_log_price=np.float64(0.25), burn_in=np.int32(2),
        price_rule=PriceRule(gamma=np.float32(1.0), sigma0=np.float16(0.5), delta=np.int8(0)),
        fw=FWParams(a=np.float32(1.5), b=np.full(20, 0.5, dtype=np.float32),
                    log_fundamental=np.array(0.25), noise_std=np.int64(0)),
        herding=HerdingConfig(n_agents=np.int64(5), threshold_min=np.float32(1.0),
                              threshold_max=np.int16(2), ed_noise_std=np.float64(0.5)))

    def leaves(value):
        if isinstance(value, dict):
            return [leaf for v in value.values() for leaf in leaves(v)]
        return list(value) if isinstance(value, tuple) else [value]

    doc = dataclasses.asdict(config)
    types = {type(leaf) for leaf in leaves(doc)}
    assert types == {str, int, float}
    assert type(doc["steps"]) is int and type(doc["fw"]["noise_std"]) is float
    assert doc["dt"] == 0.5 and doc["fw"]["log_fundamental"] == 0.25
    assert config_from_dict(json.loads(json.dumps(doc))) == config


class TestRunSimulation:
    def test_fixed_point_zero_noise(self):
        # P^F == S0, no noise anywhere: flat trajectory, all returns 0
        cfg = fw_config(
            initial_log_price=0.0,
            price_rule=PriceRule(gamma=1.0, sigma0=0.0),
            fw=FWParams(a=1.0, b=0.5, log_fundamental=0.0, noise_std=0.0),
        )
        out = run_simulation(cfg)
        np.testing.assert_array_equal(out.log_prices, np.zeros(cfg.steps + 1))
        np.testing.assert_array_equal(out.returns, np.zeros(cfg.steps - cfg.burn_in))

    def test_determinism_bitwise(self):
        for cfg in (fw_config(), cross_herding_defaults(seed=3, steps=300)):
            a = run_simulation(cfg)
            b = run_simulation(cfg)
            assert a.log_prices.tobytes() == b.log_prices.tobytes()
            assert a.diagnostics == b.diagnostics

    def test_output_lengths_and_reconstruction(self):
        cfg = cross_herding_defaults(seed=1, steps=400)
        out = run_simulation(cfg)
        assert out.log_prices.shape == (401,)
        assert len(out.returns) == cfg.steps - cfg.burn_in
        rebuilt = np.exp(out.log_prices[cfg.burn_in]) * np.exp(
            np.cumsum(out.returns)
        )
        np.testing.assert_allclose(
            rebuilt, np.exp(out.log_prices[cfg.burn_in + 1 :]), rtol=1e-9
        )

    def test_cross_diagnostics_switch_count(self):
        out = run_simulation(cross_herding_defaults(seed=2, steps=500))
        assert out.diagnostics["switch_count"] > 0
        assert out.diagnostics["n_agents"] == 1000

    def test_blowup_names_step_and_seed(self, tmp_path, capsys):
        # chartists alone: each price move grows by 0.5 * b * gamma * dt = 1.5
        doc = {"model": FW_TWO_AGENT, "steps": 500, "dt": 1.0, "seed": 3,
               "price_rule": {"gamma": 1.0, "noise": "constant", "sigma0": 0.01},
               "fw": {"a": 0.0, "b": 3.0}}
        message = "log price 775.563501138344 out of range at step 31 (seed 3)"
        with pytest.raises(NumericalBlowup) as e:
            run_simulation(config_from_dict(doc))
        assert e.value.step_index == 31
        assert str(e.value) == message
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"NumericalBlowup: {message}\n"
        assert not out.exists()
        # cross herding: a fast market maker overshoots the herd's demand
        cross = cross_herding_defaults(seed=3, steps=2000)
        cross = replace(cross, herding=replace(cross.herding, n_agents=50),
                        price_rule=PriceRule(gamma=1000.0, noise="proportional", delta=0.03))
        with pytest.raises(NumericalBlowup) as e:
            run_simulation(cross)
        assert e.value.step_index == 206
        assert str(e.value) == "log price -711.9858567758046 out of range at step 206 (seed 3)"


class TestRunEnsemble:
    def test_single_replication_equals_run(self):
        cfg = fw_config()
        assert (
            run_ensemble(cfg, 1)[0].log_prices.tobytes()
            == run_simulation(cfg).log_prices.tobytes()
        )

    def test_seed_derivation_and_distinct_streams(self):
        cfg = fw_config(seed=100)
        outs = run_ensemble(cfg, 3)
        assert [o.seed for o in outs] == [100, 101, 102]
        r0, r1 = outs[0].returns[:100], outs[1].returns[:100]
        assert not np.array_equal(r0, r1)

    def test_parallel_matches_sequential(self):
        cfg = cross_herding_defaults(seed=11, steps=300)
        seq = run_ensemble(cfg, 4, workers=1)
        par = run_ensemble(cfg, 4, workers=2)
        for a, b in zip(seq, par):
            assert a.log_prices.tobytes() == b.log_prices.tobytes()
            assert a.diagnostics == b.diagnostics

    def test_rejects_zero_replications(self):
        with pytest.raises(ConfigError, match="^replications: must be >= 1$") as e:
            run_ensemble(fw_config(), 0)
        assert e.value.field == "replications"

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ConfigError, match="^workers: must be >= 1$") as e:
            run_ensemble(fw_config(), 2, workers=workers)
        assert e.value.field == "workers"

    @pytest.mark.parametrize("replications, workers, field", [
        (2.5, 1, "replications"), (True, 1, "replications"), ("2", 1, "replications"),
        (2, 1.5, "workers"), (2, None, "workers"),
    ], ids=["float", "bool", "string", "float_workers", "none_workers"])
    def test_counts_must_be_integers(self, replications, workers, field):
        with pytest.raises(ConfigError, match=f"^{field}: must be of type int, got ") as e:
            run_ensemble(cross_herding_defaults(steps=20), replications, workers=workers)
        assert e.value.field == field

    def test_last_seed_must_fit_64_bits(self, tmp_path, capsys):
        top = 2**64 - 1
        assert [o.seed for o in run_ensemble(fw_config(seed=top - 1, steps=50), 2)] == [top - 1, top]
        message = f"seed: replication 1 would run with seed {2**64}"
        with pytest.raises(ConfigError, match=message) as e:
            run_ensemble(fw_config(seed=top), 2)
        assert e.value.field == "seed"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(fw_config(steps=50))))
        assert main(["ensemble", "--config", str(path), "--seed", str(top),
                     "--replications", "2", "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"ConfigError: {message}" in err
        assert "Traceback" not in err


class TestWriteSimOutput:
    def test_files_written_and_byte_identical(self, tmp_path):
        cfg = fw_config()
        out = run_simulation(cfg)
        paths_a = write_sim_output(out, tmp_path / "a", "sim")
        paths_b = write_sim_output(run_simulation(cfg), tmp_path / "b", "sim")
        assert len(paths_a) == 3
        for pa, pb in zip(paths_a, paths_b):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_returns_file_round_trips_full_precision(self, tmp_path):
        out = run_simulation(fw_config())
        (path_lp, path_ret, path_diag) = write_sim_output(out, tmp_path, "sim")
        with open(path_ret) as fh:
            rows = fh.read().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        np.testing.assert_array_equal(values, out.returns)
        with open(path_diag) as fh:
            diag = json.load(fh)
        assert diag["seed"] == out.seed


_WALK = np.cumsum(np.random.default_rng(5).normal(0.0, 0.01, 500)).tolist()

# (config, SHA-256 of log_prices.tobytes(), diagnostics), one row per model
# and per number of normals it draws a step; recorded while every normal
# was a single draw
REFERENCE_RUNS = {
    "fw": (
        fw_config(),
        "d3d2a436361e0c251bde6d63f90e45909e8fcb960f3127cd55c10208209e47b2",
        {"model": FW_TWO_AGENT, "steps": 500, "blowup": None},
    ),
    "fw_schedule": (
        fw_config(fw=FWParams(a=[1.0 + 0.001 * k for k in range(500)], b=0.5,
                              log_fundamental=_WALK, noise_std=0.2)),
        "d3b3efd8b993cf5d26f042a7379cc23ee54bd5c5d3f0f4c22e02334a6d590b36",
        {"model": FW_TWO_AGENT, "steps": 500, "blowup": None},
    ),
    "cross": (
        cross_herding_defaults(seed=3, steps=2000),
        "df296be6e2834afdaa118b189f4369be9730addefb40b2ef1befd877d2cfebb6",
        {"model": CROSS_HERDING, "steps": 2000, "blowup": None,
         "switch_count": 6725, "n_agents": 1000},
    ),
    "fw_no_noise": (
        fw_config(fw=FWParams(a=1.0, b=0.5, log_fundamental=0.0, noise_std=0.0)),
        "f18410716a8f9e8dd3434c79a66f1ef77530508eeffc3a1c34dbf51480038478",
        {"model": FW_TWO_AGENT, "steps": 500, "blowup": None},
    ),
    "cross_no_ed_noise": (
        replace(cross_herding_defaults(seed=4, steps=2000),
                herding=HerdingConfig(ed_noise_std=0.0)),
        "bfaecc32b634c1fd8ec4550d070fc9a606d7ef99262bcbc3bc594d5e99e37d18",
        {"model": CROSS_HERDING, "steps": 2000, "blowup": None,
         "switch_count": 475, "n_agents": 1000},
    ),
    # 5000 normals: more than one block
    "cross_long": (
        cross_herding_defaults(seed=6, steps=2500),
        "4419f32d895509be25e721094c34f330690cf35010f194c9cdf0cf4e087a149c",
        {"model": CROSS_HERDING, "steps": 2500, "blowup": None,
         "switch_count": 6934, "n_agents": 1000},
    ),
}


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_reference_bits(name):
    config, digest, diagnostics = REFERENCE_RUNS[name]
    if name == "cross_long":
        assert 2 * config.steps > NORMAL_BLOCK
    out = run_simulation(config)
    assert hashlib.sha256(out.log_prices.tobytes()).hexdigest() == digest
    assert out.diagnostics == diagnostics


@pytest.mark.parametrize("name", ["fw", "fw_no_noise", "cross", "cross_no_ed_noise"])
def test_first_steps_do_not_depend_on_steps(name):
    # a run may draw normals past its last step, so a step's draws must not
    # depend on how many steps follow it
    config = REFERENCE_RUNS[name][0]
    short, long = (run_simulation(replace(config, steps=steps, burn_in=None))
                   for steps in (300, 300 + NORMAL_BLOCK + 7))
    assert short.log_prices[:301].tobytes() == long.log_prices[:301].tobytes()


# The loop that run_simulation ran while both models went through one price
# loop, kept as the oracle of the bits: each model built a demand function
# excess_demand(k, log_price, normal) -> ed once per run, and each step k
# asked it for the excess demand at S_k, then drew eta and applied the rule.
def _oracle_normals(rng):
    blocks = iter(lambda: rng.standard_normal(NORMAL_BLOCK).tolist(), None)
    return itertools.chain.from_iterable(blocks).__next__


def _oracle_fw_demand(fw, initial_log_price):
    prev = initial_log_price
    noisy = fw.noise_std > 0.0

    def excess_demand(k, log_price, normal):
        nonlocal prev
        a_k, b_k = fw.weights_at(k)
        ed_f = fundamentalist_demand(a_k, fw.fundamental_at(k), log_price)
        ed_c = chartist_demand(b_k, log_price, prev)
        noise_draw = normal() if noisy else 0.0
        prev = log_price
        return franke_westerhoff_ED(ed_c, ed_f, fw, noise_draw)

    return excess_demand


def _oracle_cross_demand(h, dt, rng, diagnostics):
    pop = HerdingPopulation.random(h, rng)
    diagnostics.update(switch_count=0, n_agents=h.n_agents)
    noisy = h.ed_noise_std > 0.0

    def excess_demand(k, log_price, normal):
        nonlocal pop
        ed = population_excess_demand(pop)
        ed_env = ed + h.ed_noise_std * normal() if noisy else ed
        new_pop = herding_step(pop, ed_env, dt)
        diagnostics["switch_count"] += switch_count(pop, new_pop)
        pop = new_pop
        return ed

    return excess_demand


def _oracle_run(config):
    """(log_prices, diagnostics) of the demand-function loop."""
    rng = np.random.default_rng(config.seed)
    diagnostics = {"model": config.model, "steps": config.steps, "blowup": None}
    log_prices = np.empty(config.steps + 1)
    s = log_prices[0] = config.initial_log_price
    if config.model == FW_TWO_AGENT:
        excess_demand = _oracle_fw_demand(config.fw, config.initial_log_price)
    else:
        excess_demand = _oracle_cross_demand(config.herding, config.dt, rng, diagnostics)
    normal = _oracle_normals(rng)
    dt, rule = config.dt, config.price_rule
    try:
        for k in range(config.steps):
            ed = excess_demand(k, s, normal)
            s = log_prices[k + 1] = price_step(s, ed, dt, rule, normal())
    except NumericalBlowup as exc:
        exc.step_index = k
        exc.args = (f"{exc} at step {k} (seed {config.seed})",)
        raise
    return log_prices, diagnostics


def _outcome(run, config):
    """The log-price bytes and diagnostics of a run, or where and how it blew up."""
    try:
        log_prices, diagnostics = run(config)
    except NumericalBlowup as exc:
        return "blowup", exc.step_index, str(exc)
    return log_prices.tobytes(), diagnostics


def _price_rules():
    return st.builds(PriceRule, gamma=st.sampled_from([0.0, 0.5, 1.0, 3.0, 1000.0]),
                     noise=st.sampled_from(["constant", "proportional"]),
                     sigma0=st.floats(0.0, 0.5), delta=st.floats(0.0, 0.5))


@st.composite
def _fw_configs(draw):
    steps = draw(st.integers(1, 150))

    def per_step(values):  # a constant, or a schedule at least as long as the run
        return draw(values | st.lists(values, min_size=steps, max_size=steps + 3))

    fw = FWParams(a=per_step(st.floats(0.0, 2.0)), b=per_step(st.floats(0.0, 4.0)),
                  log_fundamental=per_step(st.floats(-1.0, 1.0)),
                  noise_std=draw(st.sampled_from([0.0, 0.01, 0.3])))
    return RunConfig(model=FW_TWO_AGENT, steps=steps, dt=draw(st.sampled_from([0.01, 0.1, 1.0])),
                     seed=draw(st.integers(0, 2**64 - 1)), price_rule=draw(_price_rules()),
                     initial_log_price=draw(st.sampled_from([0.0, -0.0, 0.25])), fw=fw)


@st.composite
def _cross_configs(draw):
    low = draw(st.floats(0.05, 2.0))
    herding = HerdingConfig(n_agents=draw(st.integers(1, 40)), threshold_min=low,
                            threshold_max=low + draw(st.sampled_from([0.0, 0.5, 1.0])),
                            ed_noise_std=draw(st.sampled_from([0.0, 0.1, 1.0])))
    return RunConfig(model=CROSS_HERDING, steps=draw(st.integers(1, 150)),
                     dt=draw(st.sampled_from([0.02, 0.1, 1.0])),
                     seed=draw(st.integers(0, 2**64 - 1)), price_rule=draw(_price_rules()),
                     herding=herding)


_LONG_FW = fw_config(steps=NORMAL_BLOCK // 2 + 50)  # two normals a step
_LONG_CROSS = replace(cross_herding_defaults(seed=9, steps=NORMAL_BLOCK // 2 + 50),
                      herding=HerdingConfig(n_agents=20))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(config=st.one_of(_fw_configs(), _cross_configs()))
@example(config=_LONG_FW)
@example(config=replace(_LONG_FW, steps=NORMAL_BLOCK + 50,  # one normal a step
                        fw=FWParams(a=1.0, b=0.5, noise_std=0.0)))
@example(config=_LONG_CROSS)
@example(config=replace(_LONG_CROSS, herding=HerdingConfig(n_agents=20, ed_noise_std=0.0)))
@example(config=config_from_dict({  # the FW blowup pinned above
    "model": FW_TWO_AGENT, "steps": 500, "dt": 1.0, "seed": 3,
    "price_rule": {"gamma": 1.0, "noise": "constant", "sigma0": 0.01},
    "fw": {"a": 0.0, "b": 3.0}}))
@example(config=replace(cross_herding_defaults(seed=3, steps=2000),  # the cross blowup
                        herding=HerdingConfig(n_agents=50),
                        price_rule=PriceRule(gamma=1000.0, noise="proportional", delta=0.03)))
def test_model_loops_match_the_demand_function_loop(config):
    def run(config):
        out = run_simulation(config)
        return out.log_prices, out.diagnostics

    assert _outcome(run, config) == _outcome(_oracle_run, config)


# The linear FW market with constant a, b, F and constant noise is an AR(2)
# in x = S - F (Franke & Westerhoff 2012; Box, Jenkins & Reinsel, ch. 3):
# x_{k+1} = phi1 x_k + phi2 x_{k-1} + u_k with phi1 = 1 + gamma dt (b - a) / 2,
# phi2 = -gamma dt b / 2 and Var u = (gamma dt noise_std)^2 + sigma0^2 dt.
_AR2_GAMMA, _AR2_DT, _AR2_A, _AR2_NOISE_STD, _AR2_SIGMA0 = 1.0, 0.1, 1.0, 0.3, 0.05
_AR2_LAGS, _AR2_STEPS = 10, 200_000


def _ar2_config(b, seed, steps=_AR2_STEPS):
    return RunConfig(model=FW_TWO_AGENT, steps=steps, dt=_AR2_DT, seed=seed,
                     price_rule=PriceRule(gamma=_AR2_GAMMA, sigma0=_AR2_SIGMA0),
                     fw=FWParams(a=_AR2_A, b=b, noise_std=_AR2_NOISE_STD))


def _ar2_return_moments(b, terms=2000):
    """Variance of the stationary x, and variance and ACF at lags
    1.._AR2_LAGS of the returns x_{k+1} - x_k, with Bartlett's n * variance
    of each sample ACF value and n * relative variance of the sample
    variance (Gaussian innovations)."""
    g = _AR2_GAMMA * _AR2_DT
    phi1, phi2 = 1.0 + g * (b - _AR2_A) / 2.0, -g * b / 2.0
    var_u = (g * _AR2_NOISE_STD) ** 2 + _AR2_SIGMA0**2 * _AR2_DT
    rho = [1.0, phi1 / (1.0 - phi2)]  # Yule-Walker
    while len(rho) < terms + 2 * _AR2_LAGS + 2:
        rho.append(phi1 * rho[-1] + phi2 * rho[-2])
    cov_x = var_u / (1.0 - phi1 * rho[1] - phi2 * rho[2]) * np.array(rho)
    cov_x = np.concatenate([cov_x[:0:-1], cov_x])  # lags -m..m
    mid = len(cov_x) // 2
    cov_r = 2.0 * cov_x[1:-1] - cov_x[:-2] - cov_x[2:]  # lags -(m-1)..m-1
    acf = cov_r[mid - 1:] / cov_r[mid - 1]  # lags 0..m-1

    def r(j):
        return acf[np.abs(j)]

    j = np.arange(1, terms)
    bartlett = np.array([np.sum((r(j + h) + r(j - h) - 2.0 * r(h) * r(j)) ** 2)
                         for h in range(1, _AR2_LAGS + 1)])
    var_of_var = 2.0 * (1.0 + 2.0 * np.sum(acf[j] ** 2))
    return cov_x[mid], cov_r[mid - 1], acf[1:_AR2_LAGS + 1], bartlett, var_of_var


# seeds fixed before any run; b = 0.8, 8 and 15 put the largest root of the
# AR(2) at 0.948, 0.911 and 0.866
@pytest.mark.parametrize("b, seed", [(0.8, 2026), (8.0, 2027), (15.0, 2028)])
def test_linear_fw_market_matches_its_ar2_closed_form(b, seed):
    out = run_simulation(_ar2_config(b, seed))
    n = out.returns.size
    var_x, var, acf, bartlett, var_of_var = _ar2_return_moments(b)
    mean_hat, var_hat = mean_var(out.returns)
    # the returns telescope: their mean is (x_end - x_start) / n
    assert abs(mean_hat) <= 4.0 * math.sqrt(2.0 * var_x) / n
    assert abs(var_hat / var - 1.0) <= 4.0 * math.sqrt(var_of_var / n)
    np.testing.assert_array_less(np.abs(acf_profile(out.returns, _AR2_LAGS) - acf),
                                 4.0 * np.sqrt(bartlett / n))


def test_linear_fw_market_past_its_stability_boundary_blows_up():
    # b > 2 / (gamma dt) = 20: complex roots of modulus sqrt(gamma dt b / 2) > 1
    with pytest.raises(NumericalBlowup) as e:
        run_simulation(_ar2_config(25.0, 2029, steps=2000))
    k = e.value.step_index
    assert 0 < k < 2000
    assert re.fullmatch(rf"log price \S+ out of range at step {k} \(seed 2029\)", str(e.value))


# With ed_noise_std 0 the cross-herding market is a counting problem.  Only
# the minority accrues pressure and its agents flip to the majority, so ED
# never changes sign: every minority agent is opposed on every step, all of
# them share one pressure, and those that flip are a prefix of the
# minority's sorted thresholds.  An exact tie (sign sum 0) never moves.
def _counting_oracle(config):
    """(log prices, switch count, consensus step) of a cross_herding run
    with ed_noise_std 0 and proportional price noise.  From the consensus
    step on, every agent holds the majority's sign; it is None at a tie."""
    h, dt, rule = config.herding, config.dt, config.price_rule
    rng = np.random.default_rng(config.seed)
    sigma = rng.choice([-1.0, 1.0], size=h.n_agents)
    threshold = rng.uniform(h.threshold_min, h.threshold_max, size=h.n_agents)
    total = int(sigma.sum())
    minority = sorted(threshold[sigma * total < 0.0].tolist())
    pressure, flipped = 0.0, 0
    consensus = 0 if total and not minority else None
    log_prices = [config.initial_log_price]
    for k, eta in enumerate(rng.standard_normal(config.steps).tolist()):
        ed = total / h.n_agents
        if minority:
            pressure = dt * abs(ed) + pressure
            flips = bisect.bisect_right(minority, pressure) - flipped
            flipped += flips
            total += 2 * flips if total > 0 else -2 * flips
            if flips and flipped == len(minority):
                consensus = k + 1
        s = log_prices[-1]
        log_prices.append(s + rule.gamma * dt * ed + rule.delta * math.sqrt(dt) * abs(ed) * eta)
    return np.array(log_prices), flipped, consensus


def _noiseless_cross(seed, n_agents, band=(1.0, 2.0), **run):
    price_rule = PriceRule(gamma=run.pop("gamma", 0.5), noise="proportional",
                           delta=run.pop("delta", 0.03))
    return RunConfig(model=CROSS_HERDING, seed=seed, price_rule=price_rule,
                     herding=HerdingConfig(n_agents, *band, ed_noise_std=0.0), **run)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_agents=st.one_of(st.integers(1, 50), st.sampled_from([2, 10, 1000, 10_000]),
                       st.integers(1, 10_000)),
    band=st.one_of(st.just((1.0, 1.0)),  # every threshold ties
                   st.tuples(st.floats(1e-3, 2.0), st.sampled_from([0.0, 0.1, 1.0])).map(
                       lambda b: (b[0], b[0] + b[1]))),
    dt=st.floats(1e-4, 1.0),
    gamma=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 0.5),
    initial_log_price=st.floats(-10.0, 10.0),
    steps=st.integers(1, 300),  # with gamma <= 1 and dt <= 1, far from LOG_PRICE_LIMIT
)
def test_noiseless_herding_market_is_a_counting_problem(seed, n_agents, band, dt, gamma, delta,
                                                        initial_log_price, steps):
    config = _noiseless_cross(seed, n_agents, band, dt=dt, gamma=gamma, delta=delta,
                              initial_log_price=initial_log_price, steps=steps)
    log_prices, switches, _ = _counting_oracle(config)
    out = run_simulation(config)
    assert out.log_prices.tobytes() == log_prices.tobytes()
    assert out.diagnostics["switch_count"] == switches


def test_noiseless_tie_never_moves():
    # seed 2 draws 500 signs of each kind for 1000 agents
    config = _noiseless_cross(2, 1000, steps=2000, dt=0.02)
    out = run_simulation(config)
    assert np.all(out.log_prices == 0.0) and np.all(out.returns == 0.0)
    assert out.diagnostics["switch_count"] == 0
    assert out.log_prices.tobytes() == _counting_oracle(config)[0].tobytes()


def test_noiseless_herd_freezes_in_consensus():
    gamma, delta, dt, steps = 0.5, 0.03, 0.02, 20_000
    config = _noiseless_cross(2031, 1000, steps=steps, dt=dt, gamma=gamma, delta=delta)
    _, switches, consensus = _counting_oracle(config)
    out = run_simulation(config)
    sigma = np.random.default_rng(config.seed).choice([-1.0, 1.0], size=1000)
    sign = np.sign(sigma.sum())
    # every agent of the first minority flipped once, then nobody did
    assert consensus is not None and consensus < steps // 2
    assert out.diagnostics["switch_count"] == switches == np.count_nonzero(sigma != sign)
    # from then on ED is the majority's sign: returns N(gamma dt sign, delta^2 dt)
    returns = np.diff(out.log_prices[consensus:])
    mean, var = mean_var(returns)
    sd, m = delta * math.sqrt(dt), returns.size
    assert abs(mean - gamma * dt * sign) <= 5.0 * sd / math.sqrt(m)
    assert abs(var / sd**2 - 1.0) <= 5.0 * math.sqrt(2.0 / m)


def test_cross_herding_calls_the_building_blocks_every_step(monkeypatch):
    """One ``herding_step`` and one ``price_step`` call a step, looked up in
    ``sim``, as the benchmark's per-layer trace counts them."""
    calls = collections.Counter()
    for name in ("herding_step", "population_excess_demand", "switch_count", "price_step"):
        def counted(*args, _name=name, _fn=getattr(sim, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(sim, name, counted)
    config = replace(cross_herding_defaults(seed=5, steps=300), herding=HerdingConfig(n_agents=50))
    run_simulation(config)
    assert calls["herding_step"] == calls["price_step"] == 300
    assert calls["population_excess_demand"] >= 1 and calls["switch_count"] >= 1


# Criterion 5's two facts over R replications of 40k steps, at a small and a
# large population.  Seeds 31-34 (R = 4) were fixed before any run.
@pytest.mark.parametrize("n_agents", [100, 100_000])
def test_facts_hold_at_small_and_large_n(n_agents):
    reps = 4
    config = replace(cross_herding_defaults(seed=31, steps=40_000),
                     herding=HerdingConfig(n_agents=n_agents))
    kurts, clustered = [], 0
    for out in run_ensemble(config, reps):
        kurts.append(excess_kurtosis(out.returns))
        band = 1.0 / math.sqrt(len(out.returns))
        clustered += autocorrelation(absolute_returns(out.returns), 10) > 3.0 * band
    kurts = np.array(kurts)
    t_stat = kurts.mean() / (kurts.std(ddof=1) / math.sqrt(reps))
    assert kurts.mean() > 0 and t_stat > 3.0
    assert clustered >= 0.75 * reps
