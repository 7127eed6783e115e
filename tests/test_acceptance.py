"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(bypassing output capture) so the run log doubles as a checklist.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.signal import lfilter

from marketfacts import (
    absolute_returns,
    acf_profile,
    autocorrelation,
    cross_herding_defaults,
    excess_kurtosis,
    fit_power_decay,
    hill_estimator,
    run_ensemble,
    skewness,
)
from marketfacts.agents import chartist_demand, fundamentalist_demand
from marketfacts.cli import main as cli_main
from marketfacts.market import PriceRule, price_step


@contextlib.contextmanager
def reported(capsys, name):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    except pytest.skip.Exception:
        status = "REPORTED (skipped)"
        raise
    finally:
        with capsys.disabled():
            print(f"\n[{status}] {name}", flush=True)


def series(values):
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_estimator_exactness(capsys):
    with reported(capsys, "criterion 1: estimator exactness on closed-form inputs"):
        start = time.perf_counter()

        alternating = series([1.0, -1.0] * 50)
        assert autocorrelation(alternating, 2) == pytest.approx(0.98, abs=1e-12)

        two_point = series([0.0, 1.0] * 2)
        assert excess_kurtosis(two_point) == pytest.approx(-2.0, abs=1e-12)

        grid = series(
            [math.exp(3), math.exp(2), math.exp(1), 1.0]
            + list(np.linspace(0.01, 0.99, 56))
        )
        assert hill_estimator(grid, 0.05) == pytest.approx(0.5, abs=1e-12)

        lags = np.arange(1, 51)
        fit = fit_power_decay(lags, lags ** -0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-10)

        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- criterion 2

def acf_oracle(x, lag):
    n = len(x)
    mean = sum(x) / n
    num = sum((x[t + lag] - mean) * (x[t] - mean) for t in range(n - lag))
    den = sum((v - mean) ** 2 for v in x)
    return num / den


def moments_oracle(x):
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    return m3 / m2 ** 1.5, m4 / m2 ** 2 - 3.0


def hill_oracle(x, tail_fraction):
    pos = sorted((v for v in x if v > 0), reverse=True)
    k = int(len(pos) * tail_fraction)
    logs = [math.log(v) for v in pos]
    return 1.0 / (sum(logs[i] - logs[k] for i in range(k)) / k)


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_criterion_2_oracle_consistency(capsys):
    with reported(capsys, "criterion 2: brute-force oracle agreement on 200 random inputs"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for trial in range(200):
            n = int(rng.integers(30, 1001))
            draw = rng.choice(3)
            if draw == 0:
                x = rng.standard_normal(n)
            elif draw == 1:
                x = rng.lognormal(sigma=1.2, size=n)
            else:
                x = rng.standard_t(df=3, size=n)
            s = series(x)
            lag = int(rng.integers(1, n // 2))
            assert close(autocorrelation(s, lag), acf_oracle(list(x), lag))
            skew_o, kurt_o = moments_oracle(list(x))
            assert close(skewness(s), skew_o)
            assert close(excess_kurtosis(s), kurt_o)
            pos = np.abs(x) + 1e-9
            assert close(
                hill_estimator(series(pos), 0.1),
                hill_oracle(list(pos), 0.1),
            )
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_statistical_calibration(capsys):
    with reported(capsys, "criterion 3: calibration on Pareto / Gaussian / AR(1) samples"):
        start = time.perf_counter()
        rng = np.random.default_rng(314)

        for mu in (2.0, 2.5, 3.0):
            u = rng.uniform(size=100_000)
            pareto = u ** (-1.0 / mu)  # inverse CDF of P(X > x) = x^-mu
            est = hill_estimator(series(pareto), 0.05)
            assert abs(est - mu) / mu < 0.05

        n = 1_000_000
        gauss = series(rng.standard_normal(n))
        assert abs(excess_kurtosis(gauss)) < 0.05
        profile = acf_profile(gauss, 100)
        assert np.all(np.abs(profile) < 3.0 / math.sqrt(n))

        eps = rng.standard_normal(n)
        ar1 = series(lfilter([1.0], [1.0, -0.8], eps))
        for lag in range(1, 21):
            assert abs(autocorrelation(ar1, lag) - 0.8 ** lag) < 0.01

        assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_reference_table_reproduction(capsys):
    with reported(capsys, "criterion 4: reference index-table reproduction"):
        pytest.skip(
            "no archival index-price snapshot is bundled; reported, not "
            "enforced — supply a matching CSV and run `marketfacts analyze` "
            "to compare"
        )


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_stylized_fact_emergence(capsys):
    with reported(capsys, "criterion 5: fat tails + volatility clustering from herding defaults"):
        start = time.perf_counter()
        reps = 20
        config = cross_herding_defaults(seed=2024, steps=100_000)
        outputs = run_ensemble(config, reps, workers=4)

        n = len(outputs[0].returns)
        band = 1.0 / math.sqrt(n)

        kurts = []
        raw_in_band = 0
        abs_clustered = 0
        for out in outputs:
            raw = out.returns
            kurts.append(excess_kurtosis(raw))
            if all(
                abs(autocorrelation(raw, lag)) < 3.0 * band
                for lag in (10, 20, 50, 100)
            ):
                raw_in_band += 1
            if autocorrelation(absolute_returns(raw), 10) > 3.0 * band:
                abs_clustered += 1

        kurts = np.array(kurts)
        t_stat = kurts.mean() / (kurts.std(ddof=1) / math.sqrt(reps))
        assert kurts.mean() > 0 and t_stat > 3.0
        assert raw_in_band >= 15
        assert abs_clustered >= 15

        profile = acf_profile(absolute_returns(outputs[0].returns), 100)
        fit = fit_power_decay(np.arange(1, 101), profile)
        assert fit.exponent > 0

        assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_determinism(capsys, tmp_path):
    with reported(capsys, "criterion 6: byte-identical reruns of simulate/ensemble/analyze"):
        start = time.perf_counter()
        import dataclasses
        import json

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(dataclasses.asdict(cross_herding_defaults(seed=6, steps=2000)))
        )

        def run(cmd, out):
            assert cli_main(cmd + ["--out-dir", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        sim_cmd = ["simulate", "--config", str(cfg_path)]
        assert run(sim_cmd, tmp_path / "s1") == run(sim_cmd, tmp_path / "s2")

        ens = ["ensemble", "--config", str(cfg_path), "--replications", "3"]
        seq = run(ens + ["--workers", "1"], tmp_path / "e1")
        par = run(ens + ["--workers", "2"], tmp_path / "e2")
        assert seq == par

        prices_path = tmp_path / "prices.csv"
        rng = np.random.default_rng(0)
        walk = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(2000)))
        with open(prices_path, "w") as fh:
            fh.write("Date,Open,High,Low,Close,Volume\n")
            base = np.datetime64("2000-01-01")
            for k, p in enumerate(walk):
                fh.write(f"{base + k},{float(p)!r},0,0,{float(p)!r},0\n")
        ana = ["analyze", "--input", str(prices_path)]
        assert run(ana, tmp_path / "a1") == run(ana, tmp_path / "a2")

        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_dynamics_sanity(capsys):
    with reported(capsys, "criterion 7: fundamentalist convergence and chartist divergence"):
        a, gamma, dt, pf = 1.0, 0.5, 1.0, 2.0  # a*gamma*dt < 2
        rule = PriceRule(gamma=gamma)
        s = 0.0
        for _ in range(10_000):
            ed = fundamentalist_demand(a, pf, s)
            s = price_step(s, ed, dt, rule, eta=0.0)
        assert abs(s - pf) < 1e-8

        b, gamma, dt = 2.1, 0.5, 1.0
        c = b * gamma * dt  # per-step displacement growth factor
        rule = PriceRule(gamma=gamma)
        s = 0.1
        prev = 0.0
        for _ in range(100):
            ed = chartist_demand(b, s, prev)
            prev = s
            s = price_step(s, ed, dt, rule, eta=0.0)
        growth = (s - prev) / 0.1
        assert abs(growth / c ** 100 - 1.0) < 1e-6
