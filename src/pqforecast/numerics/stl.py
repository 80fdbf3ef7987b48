"""Additive seasonal-trend decomposition via iterated loess smoothing.

Follows the classic inner/outer loop scheme: cycle-subseries smoothing,
a low-pass filter to keep the seasonal component centered, then trend
smoothing of the deseasonalized series; an outer robustness pass
downweights outliers with bisquare weights.

Weekly series with a yearly cycle carry only two or three points per
cycle subseries at the 105-week training length, so the default seasonal
smoother is "periodic": each subseries is replaced by its (robustness-
weighted) mean. An explicit odd window length can be configured for
longer series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DataError
from .loess import loess_window


@dataclass(frozen=True)
class STLConfig:
    seasonal_window: Optional[int] = None  # None -> periodic (subseries mean)
    inner_iterations: int = 2
    robustness_iterations: int = 1


@dataclass
class Decomposition:
    """Additive split: trend + seasonal + remainder reconstructs the input."""

    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray
    period: int

    def __post_init__(self) -> None:
        n = len(self.trend)
        if len(self.seasonal) != n or len(self.remainder) != n:
            raise DataError("decomposition components must have equal length")
        if self.period < 1:
            raise DataError("period must be positive")

    def seasonally_adjusted(self) -> np.ndarray:
        return self.trend + self.remainder


def next_odd(value: float) -> int:
    k = int(np.ceil(value))
    return k if k % 2 == 1 else k + 1


def _default_trend_window(period: int, seasonal_window: Optional[int]) -> int:
    if seasonal_window is None:
        return next_odd(1.5 * period)
    return next_odd(1.5 * period / (1.0 - 1.5 / seasonal_window))


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    kernel = np.full(width, 1.0 / width)
    return np.convolve(x, kernel, mode="valid")


def _smooth_subseries(
    detrended: np.ndarray, period: int, rho: np.ndarray, seasonal_window: Optional[int]
) -> np.ndarray:
    """Smooth each cycle subseries and extend it one period at both ends."""
    n = len(detrended)
    extended = np.empty(n + 2 * period, dtype=float)
    for pos in range(period):
        idx = np.arange(pos, n, period)
        sub = detrended[idx]
        sub_rho = rho[idx]
        if seasonal_window is None:
            total = sub_rho.sum()
            value = float(np.dot(sub, sub_rho) / total) if total > 0 else float(sub.mean())
            fitted = np.full(len(sub) + 2, value)
        else:
            t = np.arange(len(sub), dtype=float)
            fitted = loess_window(
                t, sub, max(2, seasonal_window), 1,
                np.arange(-1, len(sub) + 1, dtype=float), weights=sub_rho,
            )
        extended[pos] = fitted[0]  # one cycle before the sample
        extended[idx + period] = fitted[1:-1]
        extended[idx[-1] + 2 * period] = fitted[-1]  # one cycle after
    return extended


def _lowpass(extended: np.ndarray, n: int, period: int, window: int) -> np.ndarray:
    smoothed = _moving_average(extended, period)
    smoothed = _moving_average(smoothed, period)
    smoothed = _moving_average(smoothed, 3)
    assert len(smoothed) == n
    t = np.arange(n, dtype=float)
    return loess_window(t, smoothed, min(window, n), 1, t)


def _bisquare(residual: np.ndarray) -> np.ndarray:
    h = 6.0 * np.median(np.abs(residual))
    if h <= 0:
        return np.ones_like(residual)
    u = np.clip(np.abs(residual) / h, 0.0, 1.0)
    return (1.0 - u**2) ** 2


def stl_decompose(y: np.ndarray, period: int, config: STLConfig = STLConfig()) -> Decomposition:
    """Decompose ``y`` into trend + seasonal + remainder with cycle ``period``."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if period < 2:
        raise DataError(f"stl: period must be >= 2, got {period}")
    if n < 2 * period:
        raise DataError(f"stl: need at least {2 * period} points, got {n}")

    trend_window = _default_trend_window(period, config.seasonal_window)
    lowpass_window = next_odd(period)
    t = np.arange(n, dtype=float)

    trend = np.zeros(n)
    seasonal = np.zeros(n)
    rho = np.ones(n)
    for outer in range(config.robustness_iterations + 1):
        for _ in range(config.inner_iterations):
            detrended = y - trend
            extended = _smooth_subseries(detrended, period, rho, config.seasonal_window)
            lowpassed = _lowpass(extended, n, period, lowpass_window)
            seasonal = extended[period : period + n] - lowpassed
            deseasonalized = y - seasonal
            trend = loess_window(t, deseasonalized, min(trend_window, n), 1, t, weights=rho)
        if outer < config.robustness_iterations:
            rho = _bisquare(y - trend - seasonal)

    remainder = y - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, remainder=remainder, period=period)
