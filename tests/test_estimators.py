import numpy as np
import pytest

from sphmg.core import ContractError
from sphmg.estimators import fit_line, persistent_correlation


def _toeplitz(curve):
    """The square window C(s, t) = curve[|t - s|] of a stationary lag curve."""
    lags = np.abs(np.subtract.outer(np.arange(len(curve)), np.arange(len(curve))))
    return np.asarray(curve)[lags]


def test_lag_correlations_of_constant_history():
    phi = np.ones((10, 5))
    assert persistent_correlation(phi @ phi.T / 5) == pytest.approx(1.0, abs=1e-12)


def test_lag_correlations_matches_direct_sum():
    # c0 is the mean of consecutive-lag pairs of N^-1 phi(t).phi(t + tau),
    # averaged over start times t, for tau = n/2 .. n-1
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(12, 7))
    n_snap, n = phi.shape
    c_lag = [np.mean([phi[t] @ phi[t + tau] / n for t in range(n_snap - tau)])
             for tau in range(n_snap // 2, n_snap)]
    pairs = [0.5 * (a + b) for a, b in zip(c_lag[:-1], c_lag[1:])]
    assert persistent_correlation(phi @ phi.T / n) == pytest.approx(np.mean(pairs), abs=1e-12)


def test_persistent_correlation_cancels_staggered_part():
    tau = np.arange(16)
    for c0 in (0.0, 0.37, 1.0):
        window = _toeplitz(c0 + (1 - c0) * (-1.0) ** tau)
        assert persistent_correlation(window) == pytest.approx(c0, abs=1e-14)


def test_persistent_correlation_needs_eight_lags():
    with pytest.raises(ContractError):
        persistent_correlation(np.ones((7, 7)))
    with pytest.raises(ContractError, match="square"):
        persistent_correlation(np.ones(16))  # a lag curve, not a window


@pytest.mark.parametrize("n", [8, 17, 64])
def test_persistent_correlation_ignores_lags_below_half_the_window(n):
    rng = np.random.default_rng(n)
    window = rng.normal(size=(n, n))
    s, t = np.indices((n, n))
    perturbed = np.where(np.abs(t - s) < n // 2, window + 1e3 * rng.normal(size=(n, n)), window)
    assert persistent_correlation(perturbed) == persistent_correlation(window)


def test_fit_line_exact():
    x = np.arange(20.0)
    slope, slope_stderr = fit_line(x, 0.5 + 0.25 * x)
    assert slope == pytest.approx(0.25, abs=1e-12)
    assert slope_stderr == pytest.approx(0.0, abs=1e-12)


def test_fit_line_constant_series():
    assert fit_line(np.arange(10.0), np.full(10, 3.0)) == (0.0, 0.0)


def test_fit_line_needs_three_points():
    with pytest.raises(ContractError, match="at least 3 points"):
        fit_line(np.arange(2.0), np.arange(2.0))


def test_fit_line_noisy_slope_error():
    rng = np.random.default_rng(5)
    x = np.arange(500.0)
    y = 1.0 + 0.1 * x + rng.normal(0, 2.0, size=500)
    slope, slope_stderr = fit_line(x, y)
    assert slope == pytest.approx(0.1, abs=5 * slope_stderr)
    assert slope_stderr > 0.0
