"""The forecasting models behind one fit/predict entry point.

``fit_predict`` produces raw (unclamped) point forecasts so equivariance
properties hold exactly; a series' rows enter a :class:`ForecastBlock`,
which makes them the nonnegative forecasts used downstream. Build one :class:`TrainingWindow`
per series and pass it to every model, so the models share its STL
decomposition.
"""

from __future__ import annotations

from ..weekly import TEST_WEEKS
from .base import (
    PUBLIC_MODELS,
    SEASONAL_PERIOD,
    ForecastBlock,
    ModelFit,
    ModelId,
    model_from_name,
)
from .baselines import predict_snaive
from .fourier_trend import predict_fourier_trend
from .sarima import predict_arima
from .smoothing import predict_hw
from .stl_models import TrainingWindow, predict_stl_composite

__all__ = [
    "ForecastBlock",
    "ModelFit",
    "ModelId",
    "PUBLIC_MODELS",
    "TrainingWindow",
    "model_from_name",
    "fit_predict",
]


def fit_predict(model: ModelId, window: TrainingWindow, h: int = TEST_WEEKS) -> ModelFit:
    """Fit ``model`` on the training window and return its raw ``h``-step point forecast."""
    y = window.values
    notes: list[str] = []

    if model is ModelId.SNAIVE:
        values = predict_snaive(y, h, SEASONAL_PERIOD)
    elif model is ModelId.HW:
        values = predict_hw(y, h, SEASONAL_PERIOD)
    elif model is ModelId.PROPHET:
        values = predict_fourier_trend(y, h, SEASONAL_PERIOD)
    elif model is ModelId.SARIMA:
        values, fit = predict_arima(y, h, SEASONAL_PERIOD, window.decomposition)
        if fit is None:
            # a corpus run must not abort on one hard series
            values = predict_snaive(y, h, SEASONAL_PERIOD)
            notes.append("sarima: no admissible order; snaive fallback")
    else:
        values, notes = predict_stl_composite(model, window.decomposition(), h)

    return ModelFit(model=model, values=values, notes=notes)
