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
import operator
import sys
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

DEFAULT_LAGS = (10, 20, 50, 100)
DEFAULT_TAIL_FRACTION = 0.05


@dataclass(frozen=True)
class TailFit:
    """Result of a log-log power-law fit: value ~ c * x^(-exponent)."""

    exponent: float
    fit_residual: float
    n_points: int


def mean_var(sample) -> tuple[float, float]:
    """Population mean and variance, (1/n) normalization."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    if n < 2:
        raise InsufficientData(f"need n >= 2 for mean/variance, got {n}")
    mean = float(x.mean())
    var = float(np.mean((x - mean) ** 2))
    return mean, var


def _standardized_moment(sample, order: int, name: str) -> float:
    """m_order / sigma^order with population moments; errors name ``name``."""
    x = np.asarray(sample, dtype=float)
    if x.size < order:
        raise InsufficientData(f"need n >= {order} for {name}, got {x.size}")
    power = order / 2
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        mean, var = mean_var(x)
        if var == 0.0:
            raise DegenerateSample(f"zero variance: {name} undefined")
        scale = float(np.float64(var) ** power)
        if scale < sys.float_info.min:  # a subnormal divisor has lost its precision
            to = "0" if scale == 0.0 else f"the subnormal {scale!r}"
            raise DegenerateSample(f"variance {var!r} underflows to {to} at power {power}: "
                                   f"{name} undefined")
        moment = float(np.mean((x - mean) ** order))
    if not (math.isfinite(scale) and math.isfinite(moment)):
        raise DegenerateSample(f"variance {var!r} overflows at power {power}: {name} undefined")
    return moment / scale


def skewness(sample) -> float:
    """Standardized third central moment, m3 / sigma^3."""
    return _standardized_moment(sample, 3, "skewness")


def excess_kurtosis(sample) -> float:
    """Standardized fourth central moment minus 3; zero for a Gaussian."""
    return _standardized_moment(sample, 4, "kurtosis") - 3.0


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
    x = np.asarray(sample, dtype=float)
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


def check_lag(lag: int, n: int) -> None:
    """Raise :class:`LagTooLarge` unless ``lag`` >= 1 leaves at least two
    overlapping points in a sample of ``n``, and TypeError unless ``lag`` is
    an integer."""
    try:
        operator.index(lag)
    except TypeError:
        raise TypeError(f"lag must be an integer, got {lag!r}") from None
    if lag < 1:
        raise LagTooLarge(f"lag must be >= 1, got {lag}")
    if n - lag < 2:
        raise LagTooLarge(f"lag {lag} needs at least {lag + 2} points, got {n}")


def _check_variance(squares: float, n: int, name: str) -> None:
    """Raise :class:`DegenerateSample` unless ``squares / n``, a sum of ``n``
    squared deviations (or a variance, with ``n`` = 1), is a normal float."""
    if squares == 0.0:
        raise DegenerateSample(f"zero variance: {name} undefined")
    if squares < sys.float_info.min * n:  # products of subnormal size have lost precision
        raise DegenerateSample(f"variance {squares / n!r} is subnormal: {name} undefined")


def _acf(series, lags) -> list[float]:
    """C(l) for each l in ``lags``, each passed by :func:`check_lag`, from one deviation pass."""
    x = np.asarray(series, dtype=float)
    d = x - x.mean()
    denom = float(np.dot(d, d))
    _check_variance(denom, x.size, "autocorrelation")
    return [float(np.dot(d[lag:], d[:-lag])) / denom for lag in lags]


def autocorrelation(series, lag: int) -> float:
    """Sample autocorrelation C(l) with full-sample mean and denominator."""
    check_lag(lag, np.size(series))
    return _acf(series, [lag])[0]


def acf_profile(series, max_lag: int) -> np.ndarray:
    """Autocorrelation at every lag 1..max_lag, in lag order."""
    if max_lag == 0 and hasattr(max_lag, "__index__"):  # an integer 0 asks for no lag
        return np.array([])
    check_lag(max_lag, np.size(series))  # covers every smaller lag, before they are listed
    return np.array(_acf(series, range(1, max_lag + 1)))


def fit_power_decay(x, values) -> TailFit:
    """Least-squares fit of ln(value) against ln(x) over two equal-length
    1-D arrays, such as ``np.arange(1, L + 1)`` and ``acf_profile(r, L)``.

    Only pairs with finite value > 0 and finite x > 0 enter the fit; the
    decay exponent is the negated slope.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"x and values must be 1-D arrays of equal length, "
                         f"got shapes {xs.shape} and {ys.shape}")
    keep = (0.0 < xs) & (xs < np.inf) & (0.0 < ys) & (ys < np.inf)
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
    x = np.asarray(sample, dtype=float)
    if x.size < 2:
        raise InsufficientData(f"need n >= 2 for a histogram, got {x.size}")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise DegenerateSample("degenerate range: min == max")
    # the edges np.histogram builds; a range too narrow repeats some of them
    if np.any(np.diff(np.linspace(lo, hi, bin_count + 1)) <= 0.0):
        raise DegenerateSample(f"range [{lo!r}, {hi!r}] cannot hold {bin_count} finite bins")
    counts, edges = np.histogram(x, bins=bin_count, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    mean, var = mean_var(x)
    _check_variance(var, 1, "Gaussian fit")  # the squares may underflow, though min < max
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


def _each(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every element, so libm sets the bits."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _norm_ppf(p: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of each p in (0, 1), unchecked: Acklam's rational
    approximation refined by one Halley step, absolute error well below 1e-8.

    ``+ - * /`` and ``sqrt`` round correctly on arrays as on Python floats,
    and log, erfc and exp go through ``math``, so every element has the bits
    of the same formula evaluated one float at a time.
    """
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    upper = p > 0.5
    # 1 - p is exact for p in [0.5, 1] (Sterbenz), so symmetry is lossless
    h = np.where(upper, 1.0 - p, p)
    x = np.empty_like(h)
    tail = h < 0.02425
    q = np.sqrt(-2.0 * _each(math.log, h[tail]))
    x[tail] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )
    q = h[~tail] - 0.5
    r = q * q
    x[~tail] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )
    # Halley refinement; with x <= 0 the erfc argument is positive, so
    # Phi(x) keeps full relative precision even deep in the tail
    e = 0.5 * _each(math.erfc, -x / math.sqrt(2.0)) - h
    u = e * math.sqrt(2.0 * math.pi) * _each(math.exp, x * x / 2.0)
    x = x - u / (1.0 + x * u / 2.0)
    return np.where(upper, -x, x)


def qq_data(sample) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian quantile-quantile arrays (theoretical, empirical).

    mean + sigma * Phi^{-1}((i - 0.5)/n) for i = 1..n (Hazen plotting
    positions), and the sorted sample.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    if n < 2:
        raise InsufficientData(f"need n >= 2 for a qq plot, got {n}")
    mean, var = mean_var(x)
    _check_variance(var, 1, "qq plot")
    ppf = _norm_ppf((np.arange(1, n + 1) - 0.5) / n)
    return mean + math.sqrt(var) * ppf, np.sort(x)


def report_rows(lags, tail_fraction: float) -> list[str]:
    """The row labels of a :func:`full_report` column, autocorrelations in
    ``lags`` order."""
    return ["Skew", "Excess Kurtosis", f"Hill {tail_fraction:g}",
            *(f"AutoCorr {lag}" for lag in lags)]


def full_report(
    returns,
    lags=DEFAULT_LAGS,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    *,
    cell_errors: bool = False,
) -> dict:
    """Skew, excess kurtosis, Hill and autocorrelations of one return series,
    keyed by :func:`report_rows`.

    The statistics are checked in this order: each lag's length, the largest
    lag first; the autocorrelations of the lags that fit, from one deviation
    pass; then skewness, kurtosis and Hill.  The first that fails raises its
    error unchanged (its class or message names it).  With ``cell_errors``
    each one that fails holds its :class:`MarketFactsError` in its own row
    instead, so a lag too long for the sample fails only that lag.
    """
    def cell(statistic, *args):
        try:
            return statistic(*args)
        except MarketFactsError as exc:
            if not cell_errors:
                raise
            return exc

    x = np.asarray(returns, dtype=float)
    acf = {lag: cell(check_lag, lag, x.size) for lag in sorted(lags, reverse=True)}
    fit = [lag for lag in lags if acf[lag] is None]  # None: check_lag passed
    if fit:
        fitted = cell(_acf, x, fit)
        acf.update(dict.fromkeys(fit, fitted) if isinstance(fitted, MarketFactsError)
                   else zip(fit, fitted))
    values = [cell(skewness, x), cell(excess_kurtosis, x),
              cell(hill_estimator, x, tail_fraction), *(acf[lag] for lag in lags)]
    return dict(zip(report_rows(lags, tail_fraction), values))
