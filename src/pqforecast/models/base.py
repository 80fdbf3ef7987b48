"""Model identifiers, fit configuration, the forecast container and input
standardization."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ..errors import ConfigError, DataError

HORIZON_WEEKS = 52


class ModelId(str, Enum):
    """The eight public forecasting models, in canonical order."""

    SNAIVE = "SNaive"
    HW = "HW"
    SARIMA = "SARIMA"
    PROPHET = "Prophet"
    STL_DRIFT = "STL-Drift"
    STL_ES = "STL-ES"
    STL_HOLT = "STL-Holt"
    STL_ARIMA = "STL-ARIMA"


#: Canonical order of the public models; ensemble membership indices refer to it.
PUBLIC_MODELS: tuple[ModelId, ...] = tuple(ModelId)


def model_from_name(name: str) -> ModelId:
    for m in PUBLIC_MODELS:
        if m.value.lower() == name.lower():
            return m
    valid = ", ".join(m.value for m in PUBLIC_MODELS)
    raise ConfigError(f"unknown model {name!r}; valid models: {valid}")


@dataclass(frozen=True)
class SarimaGrid:
    """Search space for the seasonal ARIMA order selection."""

    max_p: int = 2
    max_q: int = 2
    max_d: int = 1
    max_P: int = 1
    max_Q: int = 1
    max_D: int = 1
    max_order: int = 4  # cap on p + q + P + Q
    min_len_after_diff: int = 30


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by all model fits. Defaults reproduce the weekly protocol."""

    seasonal_period: int = 52
    sarima: SarimaGrid = field(default_factory=SarimaGrid)
    n_changepoints: int = 10
    changepoint_span: float = 0.8
    fourier_order: int = 6
    changepoint_ridge: float = 1.0
    stl_inner_iterations: int = 2
    stl_robustness_iterations: int = 1
    stl_seasonal_window: Optional[int] = None  # None -> periodic subseries mean


def standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Center and scale so the optimizer path (and therefore the forecast) is
    independent of the data's affine frame; map forecasts back with
    mu + sd * value."""
    mu = float(np.mean(y))
    sd = float(np.std(y))
    if sd <= 0.0:
        sd = 1.0
    return (y - mu) / sd, mu, sd


@dataclass
class ModelFit:
    """Raw (unclamped) point forecast plus any notes such as fallbacks."""

    model: ModelId
    values: np.ndarray
    notes: list[str] = field(default_factory=list)


@dataclass
class Forecast:
    """A 52-step point forecast tied to a series and a producer label.

    ``producer`` is a model name (``"SNaive"``) or an ensemble label with
    combination method (``"D28:median"``). Values are clamped to be
    nonnegative: utilization cannot drop below zero.
    """

    series_id: str
    producer: str
    values: np.ndarray
    horizon: int = HORIZON_WEEKS

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.horizon:
            raise DataError(
                f"{self.series_id}/{self.producer}: forecast has {len(self.values)} values, "
                f"expected {self.horizon}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"{self.series_id}/{self.producer}: non-finite forecast value")
        self.values = np.maximum(self.values, 0.0)
