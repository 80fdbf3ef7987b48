"""The forecasting models behind one fit/predict entry point.

``fit_predict`` produces raw (unclamped) point forecasts so equivariance
properties hold exactly; a series' rows enter a :class:`ForecastBlock`,
which makes them the nonnegative forecasts used downstream. Build one
:class:`~pqforecast.models.stl_models.TrainingWindow` per series and pass
it to every model, so SARIMA and the four STL composites share its STL
decomposition.

Importing this package loads no fitter and no ``numerics``: a stage that
only reads and scores forecasts never compiles them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..weekly import TEST_WEEKS
from .base import PUBLIC_MODELS, ForecastBlock, ModelFit, ModelId

if TYPE_CHECKING:
    from .stl_models import TrainingWindow


def load_fitters():
    """The fitter modules, imported (with ``numerics``) on the first call.
    A stage that forks workers calls this first, so that they inherit the
    modules instead of each compiling them."""
    from . import baselines, fourier_trend, sarima, smoothing

    return baselines, fourier_trend, sarima, smoothing


def fit_predict(model: ModelId, window: TrainingWindow) -> ModelFit:
    """Fit ``model`` on the training window and return its raw point forecast
    of the test weeks. An STL composite forecasts the seasonally adjusted series
    with its sub-forecaster and adds the seasonal component, repeated by cycle."""
    baselines, fourier_trend, sarima, smoothing = load_fitters()
    y = window.values
    notes: list[str] = []

    if model is ModelId.SNAIVE:
        values = baselines.predict_snaive(y, TEST_WEEKS)
    elif model is ModelId.HW:
        values = smoothing.predict_hw(y, TEST_WEEKS)
    elif model is ModelId.PROPHET:
        values = fourier_trend.predict_fourier_trend(y, TEST_WEEKS)
    elif model is ModelId.SARIMA:
        values, fit = sarima.predict_arima(y, TEST_WEEKS, window.decomposition)
        if fit is None:
            # a corpus run must not abort on one hard series
            values = baselines.predict_snaive(y, TEST_WEEKS)
            notes.append("sarima: no admissible order; snaive fallback")
    else:
        decomp = window.decomposition()
        adjusted = decomp.seasonally_adjusted()
        if model is ModelId.STL_DRIFT:
            values = baselines.predict_drift(adjusted, TEST_WEEKS)
        elif model is ModelId.STL_ES:
            values = smoothing.predict_es(adjusted, TEST_WEEKS)
        elif model is ModelId.STL_HOLT:
            values = smoothing.predict_holt(adjusted, TEST_WEEKS)
        else:
            values, fit = sarima.predict_arima(adjusted, TEST_WEEKS)
            if fit is None:
                values = baselines.predict_naive(adjusted, TEST_WEEKS)
                notes.append("arima inadmissible on adjusted series; naive fallback")
        values = baselines.predict_snaive(decomp.seasonal, TEST_WEEKS) + values

    return ModelFit(model=model, values=values, notes=notes)
