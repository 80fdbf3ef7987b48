"""Additive seasonal-trend decomposition via iterated loess smoothing.

Follows the classic inner/outer loop scheme: cycle-subseries smoothing,
a low-pass filter to keep the seasonal component centered, then trend
smoothing of the deseasonalized series; an outer robustness pass
downweights outliers with bisquare weights.

Weekly series with a yearly cycle carry only two or three points per
cycle subseries at the 105-week training length, so the seasonal smoother
is "periodic": each subseries is replaced by its (robustness-weighted)
mean. The iteration counts are fixed and the trend window is the odd
number at or above 1.5 periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
# eval_points goes by keyword: perfbench's tracer reads args[4] or kwargs["eval_points"]
from .loess import loess_window

INNER_ITERATIONS = 2
ROBUSTNESS_ITERATIONS = 1


@dataclass
class Decomposition:
    """Additive split: trend + seasonal + remainder reconstructs the input."""

    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray

    def seasonally_adjusted(self) -> np.ndarray:
        return self.trend + self.remainder


def next_odd(value: float) -> int:
    k = int(np.ceil(value))
    return k if k % 2 == 1 else k + 1


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    kernel = np.full(width, 1.0 / width)
    return np.convolve(x, kernel, mode="valid")


def _smooth_subseries(detrended: np.ndarray, period: int, rho: np.ndarray) -> np.ndarray:
    """Each cycle subseries' weighted mean, tiled over the series and one
    period past both ends."""
    means = []
    for pos in range(period):
        idx = np.arange(pos, len(detrended), period)
        sub, sub_rho = detrended[idx], rho[idx]
        total = sub_rho.sum()
        means.append(np.dot(sub, sub_rho) / total if total > 0 else sub.mean())
    return np.resize(means, len(detrended) + 2 * period)


def _lowpass(extended: np.ndarray, n: int, period: int, window: int) -> np.ndarray:
    smoothed = _moving_average(extended, period)
    smoothed = _moving_average(smoothed, period)
    smoothed = _moving_average(smoothed, 3)
    assert len(smoothed) == n
    t = np.arange(n, dtype=float)
    return loess_window(t, smoothed, window, eval_points=t)


def _bisquare(residual: np.ndarray) -> np.ndarray:
    h = 6.0 * np.median(np.abs(residual))
    if h <= 0:
        return np.ones_like(residual)
    u = np.clip(np.abs(residual) / h, 0.0, 1.0)
    return (1.0 - u**2) ** 2


def stl_decompose(y: np.ndarray, period: int) -> Decomposition:
    """Decompose ``y`` into trend + seasonal + remainder with cycle ``period``."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if period < 2:
        raise DataError(f"stl: period must be >= 2, got {period}")
    if n < 2 * period:
        raise DataError(f"stl: need at least {2 * period} points, got {n}")

    trend_window = next_odd(1.5 * period)
    lowpass_window = next_odd(period)
    t = np.arange(n, dtype=float)

    trend = np.zeros(n)
    seasonal = np.zeros(n)
    rho = np.ones(n)
    for outer in range(ROBUSTNESS_ITERATIONS + 1):
        for _ in range(INNER_ITERATIONS):
            detrended = y - trend
            extended = _smooth_subseries(detrended, period, rho)
            lowpassed = _lowpass(extended, n, period, lowpass_window)
            seasonal = extended[period : period + n] - lowpassed
            deseasonalized = y - seasonal
            trend = loess_window(t, deseasonalized, trend_window, eval_points=t, weights=rho)
        if outer < ROBUSTNESS_ITERATIONS:
            rho = _bisquare(y - trend - seasonal)

    remainder = y - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, remainder=remainder)
