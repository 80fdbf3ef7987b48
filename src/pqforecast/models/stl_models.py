"""Decomposition-based forecasters: seasonal component by seasonal-naive
repetition, seasonally adjusted series by a given sub-forecaster."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DataError
from ..numerics import STLConfig, stl_decompose
from .base import FitConfig
from .baselines import predict_naive, predict_snaive
from .sarima import predict_arima

SubForecaster = Callable[[np.ndarray, int, FitConfig], tuple[np.ndarray, list[str]]]


def _stl_config(config: FitConfig) -> STLConfig:
    return STLConfig(
        seasonal_window=config.stl_seasonal_window,
        inner_iterations=config.stl_inner_iterations,
        robustness_iterations=config.stl_robustness_iterations,
    )


def arima_or_naive(y: np.ndarray, h: int, config: FitConfig) -> tuple[np.ndarray, list[str]]:
    """Non-seasonal ARIMA of the adjusted series, naive when no order is admissible."""
    values, fit = predict_arima(y, h, config.sarima)
    if fit is None:
        return predict_naive(y, h), ["arima inadmissible on adjusted series; naive fallback"]
    return values, []


def predict_stl_composite(
    y: np.ndarray, h: int, forecast_adjusted: SubForecaster, config: FitConfig
) -> tuple[np.ndarray, list[str]]:
    """Forecast = repeated seasonal cycle + sub-forecaster output for the
    seasonally adjusted series. Returns (values, notes)."""
    y = np.asarray(y, dtype=float)
    period = config.seasonal_period
    if len(y) < 2 * period:
        raise DataError(f"stl composite: need at least {2 * period} observations, got {len(y)}")

    decomp = stl_decompose(y, period, _stl_config(config))
    seasonal_fc = predict_snaive(decomp.seasonal, h, period)
    adjusted_fc, notes = forecast_adjusted(decomp.seasonally_adjusted(), h, config)
    return seasonal_fc + adjusted_fc, notes
