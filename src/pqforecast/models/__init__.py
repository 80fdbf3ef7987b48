"""The forecasting models behind one fit/predict entry point.

``fit_predict`` produces raw (unclamped) point forecasts so equivariance
properties hold exactly; a series' rows enter a :class:`ForecastBlock`,
which makes them the nonnegative forecasts used downstream. Build one :class:`TrainingWindow`
per series and pass it to every model, so SARIMA and the four STL
composites share its STL decomposition.
"""

from __future__ import annotations

from ..weekly import TEST_WEEKS
from .base import PUBLIC_MODELS, ForecastBlock, ModelFit, ModelId, model_from_name
from .baselines import predict_drift, predict_naive, predict_snaive
from .fourier_trend import predict_fourier_trend
from .sarima import predict_arima
from .smoothing import predict_es, predict_holt, predict_hw
from .stl_models import TrainingWindow

__all__ = [
    "ForecastBlock",
    "ModelFit",
    "ModelId",
    "PUBLIC_MODELS",
    "TrainingWindow",
    "model_from_name",
    "fit_predict",
]


def fit_predict(model: ModelId, window: TrainingWindow) -> ModelFit:
    """Fit ``model`` on the training window and return its raw point forecast
    of the test weeks. An STL composite forecasts the seasonally adjusted series
    with its sub-forecaster and adds the seasonal component, repeated by cycle."""
    y = window.values
    notes: list[str] = []

    if model is ModelId.SNAIVE:
        values = predict_snaive(y, TEST_WEEKS)
    elif model is ModelId.HW:
        values = predict_hw(y, TEST_WEEKS)
    elif model is ModelId.PROPHET:
        values = predict_fourier_trend(y, TEST_WEEKS)
    elif model is ModelId.SARIMA:
        values, fit = predict_arima(y, TEST_WEEKS, window.decomposition)
        if fit is None:
            # a corpus run must not abort on one hard series
            values = predict_snaive(y, TEST_WEEKS)
            notes.append("sarima: no admissible order; snaive fallback")
    else:
        decomp = window.decomposition()
        adjusted = decomp.seasonally_adjusted()
        if model is ModelId.STL_DRIFT:
            values = predict_drift(adjusted, TEST_WEEKS)
        elif model is ModelId.STL_ES:
            values = predict_es(adjusted, TEST_WEEKS)
        elif model is ModelId.STL_HOLT:
            values = predict_holt(adjusted, TEST_WEEKS)
        else:
            values, fit = predict_arima(adjusted, TEST_WEEKS)
            if fit is None:
                values = predict_naive(adjusted, TEST_WEEKS)
                notes.append("arima inadmissible on adjusted series; naive fallback")
        values = predict_snaive(decomp.seasonal, TEST_WEEKS) + values

    return ModelFit(model=model, values=values, notes=notes)
