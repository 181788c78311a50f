"""Window estimators shared by the agent simulator and the kernel iterator."""

from __future__ import annotations

import numpy as np

from .core import ContractError


def persistent_correlation(window: np.ndarray) -> float:
    """Persistent part c0 of a square unit-stride window of the two-time
    correlation, C(s, t) = c0 + (1 - c0) (-1)^(t - s).

    Averaging the mean C(s, s + tau) of consecutive lag pairs cancels the
    staggered component exactly; only lags n/2 to n - 1 of the n available
    are read, so early transients do not bias the estimate.
    """
    window = np.asarray(window, dtype=np.float64)
    n = window.shape[0]
    if window.shape != (n, n):
        raise ContractError(f"c0 needs a square two-time window, got shape {window.shape}")
    if n < 8:
        raise ContractError(f"need at least 8 lags for a c0 estimate, got {n}")
    c_lag = np.array([np.mean(np.diagonal(window, offset=tau)) for tau in range(n // 2, n)])
    return float((0.5 * (c_lag[:-1] + c_lag[1:])).mean())


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(slope, slope standard error) of the ordinary least squares y = a + b x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ContractError("need at least 3 points for a slope fit")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    rss = float(np.sum((y - intercept - slope * x) ** 2))
    return slope, float(np.sqrt(max(rss, 0.0) / (n - 2) / sxx))
