"""The training window every model of a series fits on, and the
decomposition-based forecasters: seasonal component by seasonal-naive
repetition, seasonally adjusted series by a sub-forecaster."""

from __future__ import annotations

import numpy as np

from ..numerics import Decomposition, stl_decompose
from .base import SARIMA_GRID, SEASONAL_PERIOD, ModelId
from .baselines import predict_drift, predict_naive, predict_snaive
from .sarima import predict_arima
from .smoothing import predict_es, predict_holt


class TrainingWindow:
    """The training values of one series. The four STL composites and
    SARIMA's seasonal-differencing choice read one STL decomposition of
    these values, computed on first use, so a series is decomposed at most
    once and a model selection without them decomposes nothing."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=float)
        self._decomposition: Decomposition | None = None

    def decomposition(self) -> Decomposition:
        """The STL split at the weekly period; ``DataError`` below two cycles."""
        if self._decomposition is None:
            self._decomposition = stl_decompose(self.values, SEASONAL_PERIOD)
        return self._decomposition


def predict_stl_composite(model: ModelId, decomp: Decomposition, h: int) -> tuple[np.ndarray, list[str]]:
    """Forecast = repeated seasonal cycle + ``model``'s sub-forecaster output
    for the seasonally adjusted series. Returns (values, notes)."""
    adjusted = decomp.seasonally_adjusted()
    notes: list[str] = []
    if model is ModelId.STL_DRIFT:
        adjusted_fc = predict_drift(adjusted, h)
    elif model is ModelId.STL_ES:
        adjusted_fc = predict_es(adjusted, h, SEASONAL_PERIOD)
    elif model is ModelId.STL_HOLT:
        adjusted_fc = predict_holt(adjusted, h, SEASONAL_PERIOD)
    else:
        adjusted_fc, fit = predict_arima(adjusted, h, SARIMA_GRID)
        if fit is None:
            adjusted_fc = predict_naive(adjusted, h)
            notes.append("arima inadmissible on adjusted series; naive fallback")
    return predict_snaive(decomp.seasonal, h, SEASONAL_PERIOD) + adjusted_fc, notes
