"""Locally weighted polynomial regression with tricube weights."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import DataError


def tricube(u: np.ndarray) -> np.ndarray:
    """Tricube kernel (1 - |u|^3)^3 on [0, 1), zero outside."""
    u = np.abs(u)
    w = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
    return w


def loess_window(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    degree: int,
    eval_points: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Loess with a window of ``q`` nearest points.

    ``weights`` are extra multiplicative (robustness) weights on the data
    points. When ``q`` exceeds the number of points, the tricube bandwidth
    is stretched by ``q / n`` so far points keep positive weight.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if len(y) != n:
        raise DataError("loess: x and y lengths differ")
    if degree not in (0, 1, 2):
        raise DataError(f"loess: unsupported degree {degree}")
    if q < degree + 1:
        raise DataError(f"loess: window of {q} points cannot fit degree {degree}")

    out = np.empty(len(eval_points), dtype=float)
    for k, x0 in enumerate(np.asarray(eval_points, dtype=float)):
        d = np.abs(x - x0)
        if q < n:
            # distance to the q-th nearest point
            dq = np.partition(d, q - 1)[q - 1]
            in_win = d <= dq
        else:
            dq = d.max() * (q / n)
            in_win = np.ones(n, dtype=bool)
        if dq <= 0:
            dq = 1.0  # all points at x0: uniform weights
        w = tricube(d[in_win] / dq)
        if weights is not None:
            w = w * weights[in_win]
        if not np.any(w > 0):
            # robustness weights can wipe out a window; retry on tricube alone
            if weights is not None:
                w = tricube(d[in_win] / dq)
            if not np.any(w > 0):
                raise DataError(f"loess: degenerate window at x = {x0}")
        if degree == 0:
            out[k] = np.sum(w * y[in_win]) / np.sum(w)
            continue
        t = x[in_win] - x0
        design = np.vander(t, degree + 1, increasing=True)
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(design * sw[:, None], y[in_win] * sw, rcond=None)
        out[k] = beta[0]
    return out

