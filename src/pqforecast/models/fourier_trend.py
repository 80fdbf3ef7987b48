"""Additive regression forecaster: piecewise-linear trend plus Fourier
seasonality, fit jointly by ridge-penalized least squares.

Changepoints sit at evenly spaced quantiles of the first 80 % of the
training window; only the changepoint slope deviations are penalized, so
the base line and the seasonal harmonics are fit freely. Extrapolation
holds the slope of the final trend segment and keeps the seasonal cycle
going.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..numerics import least_squares

N_CHANGEPOINTS = 10
CHANGEPOINT_SPAN = 0.8
FOURIER_ORDER = 6
CHANGEPOINT_RIDGE = 1.0

# changepoint locations in normalized time (0, CHANGEPOINT_SPAN]
_CHANGEPOINTS = CHANGEPOINT_SPAN * np.arange(1, N_CHANGEPOINTS + 1) / N_CHANGEPOINTS


def _design(t: np.ndarray, week_idx: np.ndarray, period: int) -> np.ndarray:
    columns = [np.ones_like(t), t]
    for cp in _CHANGEPOINTS:
        columns.append(np.maximum(t - cp, 0.0))
    angles = 2.0 * np.pi * np.outer(week_idx, np.arange(1, FOURIER_ORDER + 1)) / period
    columns.append(np.cos(angles))
    columns.append(np.sin(angles))
    return np.column_stack(columns)


def predict_fourier_trend(y: np.ndarray, h: int, period: int) -> np.ndarray:
    """Fit the additive trend + seasonality regression and extrapolate ``h`` steps."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2 * FOURIER_ORDER + N_CHANGEPOINTS + 3:
        raise DataError(f"fourier_trend: {n} observations cannot support the design")

    # normalized time over the training window; the future extends beyond 1
    denom = n - 1 if n > 1 else 1
    t_train = np.arange(n, dtype=float) / denom
    week_train = np.arange(n, dtype=float)

    X = _design(t_train, week_train, period)
    ridge = np.zeros(X.shape[1])
    ridge[2 : 2 + N_CHANGEPOINTS] = CHANGEPOINT_RIDGE
    beta = least_squares(X, y, ridge)

    t_future = (n - 1 + np.arange(1, h + 1, dtype=float)) / denom
    week_future = n - 1 + np.arange(1, h + 1, dtype=float)
    Xf = _design(t_future, week_future, period)
    return Xf @ beta
