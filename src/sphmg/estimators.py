"""Window estimators shared by the agent simulator and the kernel iterator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError


def diagonal_means(square: np.ndarray) -> np.ndarray:
    """Mean of each upper diagonal of a square matrix, at offsets 0..n-1."""
    return np.array([np.mean(np.diagonal(square, offset=tau)) for tau in range(square.shape[0])])


def lag_correlations(phi_history: np.ndarray) -> np.ndarray:
    """Average N^(-1) phi(t).phi(t+tau) over start times, for tau = 0..n-1.

    phi_history holds consecutive position snapshots, one row per time step.
    """
    phi = np.asarray(phi_history, dtype=np.float64)
    if phi.ndim != 2:
        raise ContractError("phi_history must be a (snapshots, N) matrix")
    return diagonal_means((phi @ phi.T) / phi.shape[1])


def persistent_correlation(c_lag: np.ndarray) -> float:
    """Persistent part c0 of a lag curve of the form c0 + (1 - c0) (-1)^tau.

    Averaging consecutive lag pairs cancels the staggered component exactly;
    only pairs in the upper half of the available lags are used, so early
    transients do not bias the estimate.
    """
    c_lag = np.asarray(c_lag, dtype=np.float64)
    n_lag = c_lag.shape[0]
    if n_lag < 8:
        raise ContractError(f"need at least 8 lags for a c0 estimate, got {n_lag}")
    lo = n_lag // 2
    pairs = 0.5 * (c_lag[lo : n_lag - 1] + c_lag[lo + 1 : n_lag])
    return float(pairs.mean())


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    slope_stderr: float
    r2: float


def fit_line(x: np.ndarray, y: np.ndarray) -> LineFit:
    """Ordinary least squares y = a + b x with the slope's standard error."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise ContractError("need at least 3 points for a slope fit")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - intercept - slope * x
    rss = float(np.sum(resid**2))
    tss = float(np.sum((y - ym) ** 2))
    stderr = float(np.sqrt(max(rss, 0.0) / (n - 2) / sxx))
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return LineFit(slope=slope, intercept=intercept, slope_stderr=stderr, r2=r2)
