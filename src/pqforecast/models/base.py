"""Model identifiers, the seasonal period, the per-series forecast block
and input standardization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from ..errors import DataError

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


def standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Center and scale so the optimizer path (and therefore the forecast) is
    independent of the data's affine frame; map forecasts back with
    mu + sd * value."""
    mu = float(np.mean(y))
    with np.errstate(over="ignore"):
        sd = float(np.std(y))
    if not np.isfinite(sd):  # the squares overflow past ~1e154: scale before squaring
        scale = float(np.max(np.abs(y - mu)))
        sd = scale * float(np.std((y - mu) / scale))
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
