"""Stylized-fact estimators: moments, Hill tail exponent, autocorrelation,
power-law decay fits and figure-data generators (histogram, qq).

Conventions used throughout:

* population (1/n) moment estimators, no small-sample correction;
* Hill estimator on the upper ``tail_fraction`` of the positive sample,
  with the (k+1)-th order statistic as threshold;
* autocorrelation with a single full-sample mean and the full-sample
  sum of squares in the denominator (the standard biased estimator,
  guaranteed to stay in [-1, 1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    DegenerateTail,
    InsufficientData,
    InsufficientPositivePoints,
    InsufficientTail,
    LagTooLarge,
    MarketFactsError,
)
from .timeseries import ReturnSeries

DEFAULT_LAGS = (10, 20, 50, 100)
DEFAULT_TAIL_FRACTION = 0.05


@dataclass(frozen=True)
class StatsReport:
    """One table column: scalar statistics of a single return series."""

    skew: float
    excess_kurtosis: float
    hill: float
    acf_at_lags: dict
    tail_fraction: float = DEFAULT_TAIL_FRACTION

    def as_dict(self) -> dict:
        d = {
            "Skew": self.skew,
            "Excess Kurtosis": self.excess_kurtosis,
            f"Hill {self.tail_fraction:g}": self.hill,
        }
        for lag in sorted(self.acf_at_lags):
            d[f"AutoCorr {lag}"] = self.acf_at_lags[lag]
        return d


@dataclass(frozen=True)
class AcfProfile:
    """Autocorrelation values at lags 1..L."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lags", np.asarray(self.lags, dtype=int))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if np.any(np.diff(self.lags) <= 0):
            raise ValueError("lags must be strictly increasing")


@dataclass(frozen=True)
class TailFit:
    """Result of a log-log power-law fit: value ~ c * x^(-exponent)."""

    exponent: float
    fit_residual: float
    n_points: int


def _sample(x) -> np.ndarray:
    if isinstance(x, ReturnSeries):
        x = x.values
    return np.asarray(x, dtype=float)


def mean_var(sample) -> tuple[float, float]:
    """Population mean and variance, (1/n) normalization."""
    x = _sample(sample)
    n = x.size
    if n < 2:
        raise InsufficientData(f"need n >= 2 for mean/variance, got {n}")
    mean = float(x.mean())
    var = float(np.mean((x - mean) ** 2))
    return mean, var


def skewness(sample) -> float:
    """Standardized third central moment, m3 / sigma^3."""
    x = _sample(sample)
    if x.size < 3:
        raise InsufficientData(f"need n >= 3 for skewness, got {x.size}")
    mean, var = mean_var(x)
    if var == 0.0:
        raise DegenerateSample("zero variance: skewness undefined")
    m3 = float(np.mean((x - mean) ** 3))
    return m3 / var**1.5


def excess_kurtosis(sample) -> float:
    """Standardized fourth central moment minus 3; zero for a Gaussian."""
    x = _sample(sample)
    if x.size < 4:
        raise InsufficientData(f"need n >= 4 for kurtosis, got {x.size}")
    mean, var = mean_var(x)
    if var == 0.0:
        raise DegenerateSample("zero variance: kurtosis undefined")
    m4 = float(np.mean((x - mean) ** 4))
    return m4 / var**2 - 3.0


def hill_estimator(sample, tail_fraction: float = DEFAULT_TAIL_FRACTION) -> float:
    """Hill tail-exponent estimate from the upper ``tail_fraction`` of the
    strictly positive part of ``sample``.

    With the positive entries sorted descending x_1 >= ... >= x_m and
    k = floor(tail_fraction * m):

        H = ( (1/k) * sum_{i<=k} [ln x_i - ln x_{k+1}] )^(-1)

    Non-positive entries are dropped first: upper-tail estimation only
    concerns the right tail.
    """
    if not 0.0 < tail_fraction < 1.0:  # false for NaN too
        raise InsufficientTail(f"tail fraction {tail_fraction} is not in (0, 1)")
    x = _sample(sample)
    pos = x[x > 0.0]
    m = pos.size
    k = int(math.floor(tail_fraction * m))
    if k < 1 or k + 1 > m:
        raise InsufficientTail(
            f"tail fraction {tail_fraction} of {m} positive entries leaves k={k}"
        )
    top = np.sort(pos)[::-1][: k + 1]
    log_excess = np.log(top[:k]) - np.log(top[k])
    s = float(log_excess.mean())
    if s == 0.0:
        raise DegenerateTail("all top-k order statistics equal the threshold")
    return 1.0 / s


def autocorrelation(series, lag: int) -> float:
    """Sample autocorrelation C(l) with full-sample mean and denominator."""
    x = _sample(series)
    n = x.size
    if lag < 1:
        raise LagTooLarge(f"lag must be >= 1, got {lag}")
    if n - lag < 2:
        raise LagTooLarge(f"lag {lag} needs at least {lag + 2} points, got {n}")
    mean = x.mean()
    d = x - mean
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise DegenerateSample("zero variance: autocorrelation undefined")
    num = float(np.dot(d[lag:], d[:-lag]))
    return num / denom


def acf_profile(series, max_lag: int) -> AcfProfile:
    """Autocorrelation at every lag 1..max_lag."""
    x = _sample(series)
    lags = np.arange(1, max_lag + 1)
    values = np.array([autocorrelation(x, int(l)) for l in lags])
    return AcfProfile(lags=lags, values=values)


def fit_power_decay(profile_or_points) -> TailFit:
    """Least-squares fit of ln(value) against ln(abscissa).

    Accepts an :class:`AcfProfile` or an iterable of (x, value) pairs.
    Only pairs with value > 0 (and x > 0) enter the fit; the decay
    exponent is the negated slope.
    """
    if isinstance(profile_or_points, AcfProfile):
        xs = profile_or_points.lags.astype(float)
        ys = profile_or_points.values
    else:
        pts = np.asarray(list(profile_or_points), dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("expected an AcfProfile or (x, value) pairs")
        xs, ys = pts[:, 0], pts[:, 1]
    keep = (xs > 0.0) & (ys > 0.0)
    if int(keep.sum()) < 5:
        raise InsufficientPositivePoints(
            f"only {int(keep.sum())} strictly positive points, need >= 5"
        )
    lx = np.log(xs[keep])
    ly = np.log(ys[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return TailFit(
        exponent=float(-slope),
        fit_residual=float(np.sqrt(np.mean(resid**2))),
        n_points=int(keep.sum()),
    )


def histogram_data(sample, bin_count: int = 200):
    """Equal-width histogram over [min, max] plus a Gaussian fit curve.

    Returns (edges, counts, centers, density) where ``density`` is the
    Normal(mean, var) pdf evaluated at the bin centers, with population
    moments from :func:`mean_var`.
    """
    x = _sample(sample)
    if x.size < 2:
        raise InsufficientData(f"need n >= 2 for a histogram, got {x.size}")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise DegenerateSample("degenerate range: min == max")
    counts, edges = np.histogram(x, bins=bin_count, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    mean, var = mean_var(x)
    density = np.exp(-((centers - mean) ** 2) / (2.0 * var)) / math.sqrt(
        2.0 * math.pi * var
    )
    return edges, counts, centers, density


# Coefficients of Acklam's rational approximation to the standard normal
# inverse CDF; the result is polished with one Halley step on erfc below.
_PPF_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_PPF_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_PPF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_PPF_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)


def _norm_ppf_half(p: float) -> float:
    """Inverse normal CDF for p in (0, 0.5]; the caller handles symmetry."""
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    # Halley refinement; with x <= 0 the erfc argument is positive, so
    # Phi(x) keeps full relative precision even deep in the tail
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def norm_ppf(p: float) -> float:
    """Standard normal inverse CDF on (0, 1).

    Rational approximation refined by one Halley iteration against
    ``math.erfc``; absolute error well below 1e-8 across the open interval.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p <= 0.5:
        return _norm_ppf_half(p)
    # 1 - p is exact for p in [0.5, 1] (Sterbenz), so symmetry is lossless
    return -_norm_ppf_half(1.0 - p)


def qq_data(sample) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian quantile-quantile arrays (theoretical, empirical).

    mean + sigma * Phi^{-1}((i - 0.5)/n) for i = 1..n (Hazen plotting
    positions), and the sorted sample.
    """
    x = _sample(sample)
    n = x.size
    if n < 2:
        raise InsufficientData(f"need n >= 2 for a qq plot, got {n}")
    mean, var = mean_var(x)
    if var == 0.0:
        raise DegenerateSample("zero variance: qq plot undefined")
    ppf = np.fromiter((norm_ppf((i - 0.5) / n) for i in range(1, n + 1)), float, n)
    return mean + math.sqrt(var) * ppf, np.sort(x)


def full_report(
    returns: ReturnSeries,
    lags=DEFAULT_LAGS,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
) -> StatsReport:
    """Skew, excess kurtosis, Hill and autocorrelations of one return series.

    A member statistic's error is re-raised as the same object, with the
    failing statistic named at the start of its message.
    """
    x = returns.values

    def _try(name, fn):
        try:
            return fn()
        except MarketFactsError as exc:
            exc.args = (f"{name}: {exc}",)
            raise

    acf = {}
    for lag in lags:
        acf[int(lag)] = _try(f"autocorrelation(lag={lag})", lambda l=lag: autocorrelation(x, int(l)))
    return StatsReport(
        skew=_try("skewness", lambda: skewness(x)),
        excess_kurtosis=_try("excess_kurtosis", lambda: excess_kurtosis(x)),
        hill=_try("hill_estimator", lambda: hill_estimator(x, tail_fraction)),
        acf_at_lags=acf,
        tail_fraction=tail_fraction,
    )
