"""Exponential smoothing family: simple, with trend (Holt), and with trend
plus additive seasonality (Holt-Winters).

Smoothing parameters are chosen by minimizing the in-sample one-step
squared error with the bounded simplex optimizer; initial states follow a
fixed heuristic (first-period mean, period-to-period change, first-period
deviations) so fits stay deterministic and low-dimensional.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DataError
from ..numerics import nelder_mead
from .base import SEASONAL_PERIOD, standardize

PARAM_LO = 1e-4
PARAM_HI = 0.9999


def _initial_level_trend(y: np.ndarray, model: str) -> tuple[float, float]:
    """The first cycle's mean, and the change per step from it to the second cycle's mean."""
    period = SEASONAL_PERIOD
    if len(y) < 2 * period:
        raise DataError(f"{model}: needs two seasons ({2 * period} observations), got {len(y)}")
    level = float(np.mean(y[:period]))
    trend = float((np.mean(y[period : 2 * period]) - np.mean(y[:period])) / period)
    return level, trend


def _holt_run(y: list[float], alpha: float, beta: float, level0: float, trend0: float) -> tuple[float, float, float]:
    """One-step SSE, final level and final trend. With ``beta`` and
    ``trend0`` at 0.0 each step does the float operations of simple
    exponential smoothing, which is how ``predict_es`` runs it."""
    alpha, beta = float(alpha), float(beta)
    keep_trend = 1.0 - beta
    level, trend = level0, trend0
    sse = 0.0
    for value in y:
        prior = level + trend
        err = value - prior
        sse += err * err
        new_level = prior + alpha * err
        trend = beta * (new_level - level) + keep_trend * trend
        level = new_level
    return sse, level, trend


def _hw_run(
    y: list[float], alpha: float, beta: float, gamma: float,
    level0: float, trend0: float, seasonal0: list[float],
) -> tuple[float, float, float, list[float]]:
    """The recursions run on Python floats (``y`` and ``seasonal0`` as
    lists); the seasonal states, the initial ones first, come back as a list."""
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    keep_level, keep_trend, keep_season = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    seasonal = list(seasonal0)
    level, trend = level0, trend0
    sse = 0.0
    for t, value in enumerate(y):
        s = seasonal[t]
        prior = level + trend
        err = value - (prior + s)
        sse += err * err
        new_level = alpha * (value - s) + keep_level * prior
        seasonal.append(gamma * (value - prior) + keep_season * s)
        trend = beta * (new_level - level) + keep_trend * trend
        level = new_level
    return sse, level, trend, seasonal


def _fitted(run: Callable[..., tuple], x0: list[float]) -> tuple:
    """``run(*params)`` at the params in [PARAM_LO, PARAM_HI] that minimize its first output, the SSE."""
    result = nelder_mead(lambda p: run(*p)[0], x0=x0, bounds=[(PARAM_LO, PARAM_HI)] * len(x0))
    return run(*result.argmin)


def predict_es(y: np.ndarray, h: int) -> np.ndarray:
    """Simple exponential smoothing; flat extrapolation of the final level."""
    z, mu, sd = standardize(np.asarray(y, dtype=float))
    level0, _ = _initial_level_trend(z, "es")
    values = z.tolist()
    _, level, _ = _fitted(lambda *p: _holt_run(values, *p, 0.0, level0, 0.0), [0.5])
    return np.full(h, mu + sd * level)


def predict_holt(y: np.ndarray, h: int) -> np.ndarray:
    """Holt's linear trend method."""
    z, mu, sd = standardize(np.asarray(y, dtype=float))
    level0, trend0 = _initial_level_trend(z, "holt")
    values = z.tolist()
    _, level, trend = _fitted(lambda *p: _holt_run(values, *p, level0, trend0), [0.5, 0.1])
    return mu + sd * (level + trend * np.arange(1, h + 1))


def predict_hw(y: np.ndarray, h: int) -> np.ndarray:
    """Holt-Winters with additive trend and additive seasonality."""
    z, mu, sd = standardize(np.asarray(y, dtype=float))
    level0, trend0 = _initial_level_trend(z, "hw")
    seasonal0 = (z[:SEASONAL_PERIOD] - np.mean(z[:SEASONAL_PERIOD])).tolist()
    values = z.tolist()
    _, level, trend, seasonal = _fitted(
        lambda *p: _hw_run(values, *p, level0, trend0, seasonal0), [0.5, 0.1, 0.1])
    steps = np.arange(1, h + 1)
    seasonal_idx = len(z) + (steps - 1) % SEASONAL_PERIOD
    return mu + sd * (level + trend * steps + np.array(seasonal)[seasonal_idx])
