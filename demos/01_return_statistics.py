"""Compute fat-tail and autocorrelation statistics for a return series.

Walks through the core estimators on a synthetic heavy-tailed sample so the
expected answers are known in advance: a Student-t(3) sample has infinite
kurtosis in the limit (huge in finite samples) and a tail exponent near 3.
"""

import numpy as np

from marketfacts import (
    absolute_returns,
    autocorrelation,
    excess_kurtosis,
    full_report,
    hill_estimator,
    skewness,
)

rng = np.random.default_rng(0)
n = 100_000

print("=== Heavy-tailed sample: Student-t with 3 degrees of freedom ===")
t3 = rng.standard_t(df=3, size=n)
print(f"skewness          {skewness(t3):+.4f}   (symmetric law -> near 0)")
print(f"excess kurtosis   {excess_kurtosis(t3):+.2f}   (Gaussian would be 0)")
print(f"Hill tail exponent {hill_estimator(absolute_returns(t3), 0.05):.3f}"
      "   (theory: 3)")

print()
print("=== Gaussian control sample ===")
gauss = rng.standard_normal(n)
print(f"excess kurtosis   {excess_kurtosis(gauss):+.4f}")
print(f"Hill tail exponent {hill_estimator(absolute_returns(gauss), 0.05):.3f}"
      "   (thin tail -> large exponent)")

print()
print("=== Autocorrelation: AR(1) with phi = 0.8 ===")
eps = rng.standard_normal(n)
ar = np.empty(n)
ar[0] = eps[0]
for t in range(1, n):
    ar[t] = 0.8 * ar[t - 1] + eps[t]
for lag in (1, 2, 5, 10):
    print(f"C({lag:2d}) = {autocorrelation(ar, lag):.4f}"
          f"   (theory {0.8 ** lag:.4f})")

print()
print("=== One-call summary table ===")
for name, value in full_report(t3).items():
    print(f"{name:18s} {value:+.5f}")
