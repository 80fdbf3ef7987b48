"""Naive, drift and seasonal-naive forecasts."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .base import SEASONAL_PERIOD


def predict_naive(y: np.ndarray, h: int) -> np.ndarray:
    """Repeat the last observation."""
    y = np.asarray(y, dtype=float)
    if len(y) < 1:
        raise DataError("naive: empty training series")
    return np.full(h, y[-1])


def predict_drift(y: np.ndarray, h: int) -> np.ndarray:
    """Extend the line through the first and last observations."""
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise DataError("drift: need at least 2 observations")
    slope = (y[-1] - y[0]) / (len(y) - 1)
    return y[-1] + slope * np.arange(1, h + 1)


def predict_snaive(y: np.ndarray, h: int) -> np.ndarray:
    """Repeat the corresponding value from the previous cycle."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < SEASONAL_PERIOD:
        raise DataError(f"snaive: need at least one full period ({SEASONAL_PERIOD}), got {n}")
    steps = np.arange(1, h + 1)
    cycles_back = np.ceil(steps / SEASONAL_PERIOD).astype(int)
    return y[n + steps - 1 - cycles_back * SEASONAL_PERIOD]
