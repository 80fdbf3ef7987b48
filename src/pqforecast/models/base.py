"""Model identifiers, the protocol's fit constants, the per-series forecast
block and input standardization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DataError

HORIZON_WEEKS = 52
SEASONAL_PERIOD = 52  # weeks per yearly cycle


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


#: The order search of SARIMA and of STL-ARIMA's adjusted-series ARIMA.
SARIMA_GRID = SarimaGrid()


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
class ForecastBlock:
    """One series' point forecasts: row i of ``values`` is ``producers[i]``'s.

    A producer is a model name (``"SNaive"``) or an ensemble label with
    combination method (``"D28:median"``). Values must be finite and are
    clamped to be nonnegative: utilization cannot drop below zero.
    """

    series_id: str
    producers: list[str]
    values: np.ndarray  # (producers x horizon)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if len(set(self.producers)) < len(self.producers):
            duplicates = [p for p, n in Counter(self.producers).items() if n > 1]
            raise DataError(f"{self.series_id}: duplicate forecasts of {', '.join(duplicates[:5])}")
        if self.values.ndim != 2 or len(self.values) != len(self.producers):
            raise DataError(f"{self.series_id}: forecast values of shape {self.values.shape} "
                            f"for {len(self.producers)} producers")
        finite = np.isfinite(self.values).all(axis=1)
        if not finite.all():
            producer = self.producers[int(np.argmin(finite))]
            raise DataError(f"{self.series_id}/{producer}: non-finite forecast value")
        self.values = np.maximum(self.values, 0.0)

    def rows(self, producers: Sequence[str]) -> np.ndarray:
        """The forecasts of ``producers``, one row each, in that order."""
        position = {p: i for i, p in enumerate(self.producers)}
        missing = [p for p in producers if p not in position]
        if missing:
            raise DataError(f"{self.series_id}: missing forecasts of {', '.join(missing[:5])}")
        return self.values[[position[p] for p in producers]]
