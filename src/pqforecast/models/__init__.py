"""The forecasting models behind one fit/predict entry point.

``fit_predict`` produces raw (unclamped) point forecasts so equivariance
properties hold exactly; wrap its values into a :class:`Forecast` to get
the nonnegative forecast used downstream.
"""

from __future__ import annotations

import numpy as np

from .base import HORIZON_WEEKS, FitConfig, Forecast, ModelFit, ModelId, PUBLIC_MODELS, SarimaGrid, model_from_name
from .baselines import predict_drift, predict_snaive
from .fourier_trend import predict_fourier_trend
from .sarima import predict_sarima
from .smoothing import predict_es, predict_holt, predict_hw
from .stl_models import arima_or_naive, predict_stl_composite

__all__ = [
    "HORIZON_WEEKS",
    "FitConfig",
    "Forecast",
    "ModelFit",
    "ModelId",
    "PUBLIC_MODELS",
    "SarimaGrid",
    "model_from_name",
    "fit_predict",
]

# forecasters of the seasonally adjusted series: (y, h, config) -> (values, notes)
_STL_SUBMODELS = {
    ModelId.STL_DRIFT: lambda y, h, config: (predict_drift(y, h), []),
    ModelId.STL_ES: lambda y, h, config: (predict_es(y, h, config.seasonal_period), []),
    ModelId.STL_HOLT: lambda y, h, config: (predict_holt(y, h, config.seasonal_period), []),
    ModelId.STL_ARIMA: arima_or_naive,
}


def fit_predict(model: ModelId, y: np.ndarray, h: int = HORIZON_WEEKS,
                config: FitConfig = FitConfig()) -> ModelFit:
    """Fit ``model`` on ``y`` and return its raw ``h``-step point forecast."""
    y = np.asarray(y, dtype=float)
    period = config.seasonal_period
    notes: list[str] = []

    if model is ModelId.SNAIVE:
        values = predict_snaive(y, h, period)
    elif model is ModelId.HW:
        values = predict_hw(y, h, period)
    elif model is ModelId.PROPHET:
        values = predict_fourier_trend(y, h, config)
    elif model is ModelId.SARIMA:
        values, fit = predict_sarima(y, h, config.sarima, period)
        if fit is None:
            # a corpus run must not abort on one hard series
            values = predict_snaive(y, h, period)
            notes.append("sarima: no admissible order; snaive fallback")
    else:
        values, notes = predict_stl_composite(y, h, _STL_SUBMODELS[model], config)

    return ModelFit(model=model, values=np.asarray(values, dtype=float), notes=notes)
