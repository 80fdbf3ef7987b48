"""Lag differencing and its inverse for forecast values."""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def difference(y: np.ndarray, lag: int = 1) -> np.ndarray:
    """Lag-``lag`` differences."""
    y = np.asarray(y, dtype=float)
    if lag < 1:
        raise DataError(f"difference: lag must be >= 1, got {lag}")
    if len(y) <= lag:
        raise DataError(f"difference: series of {len(y)} too short for lag {lag}")
    return y[lag:] - y[:-lag]


def integrate_forecast(history: np.ndarray, fc: np.ndarray, lag: int = 1) -> np.ndarray:
    """Undo one differencing stage for forecast values.

    ``history`` is the undifferenced series at this stage; each forecast
    step adds the differenced prediction to the value one ``lag`` earlier.
    """
    history = np.asarray(history, dtype=float)
    if len(history) < lag:
        raise DataError(f"integrate_forecast: history shorter than lag {lag}")
    buf = list(history[-lag:])
    for d in np.asarray(fc, dtype=float):
        buf.append(d + buf[-lag])
    return np.array(buf[lag:], dtype=float)
