"""Local-linear loess with tricube weights, in closed form.

Each evaluation point gets the intercept of a weighted straight-line fit
from five weighted sums (Σw, Σwt, Σwt², Σwy, Σwty), as in the ``est`` step
of Cleveland et al., "STL: A Seasonal-Trend Decomposition Procedure Based
on Loess", J. Official Statistics 6(1), 1990.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import DataError

_EPS = float(np.finfo(float).eps)


def loess_window(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    eval_points: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Local-linear loess with a window of ``q`` nearest points.

    ``weights`` are extra multiplicative (robustness) weights on the data
    points; the window fits inside the data (``2 <= q <= n``). Where the
    weights make the line fit singular (Σw·Σwt² − (Σwt)² within rounding of
    zero, as when they sit on one abscissa), the point gets the weighted mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if len(y) != n:
        raise DataError("loess: x and y lengths differ")
    if not 2 <= q <= n:
        raise DataError(f"loess: window of {q} points for {n} points; need 2 <= q <= n")

    x0 = np.asarray(eval_points, dtype=float)
    t = x[None, :] - x0[:, None]
    d = np.abs(t)
    dq = np.partition(d, q - 1, axis=1)[:, q - 1]  # distance to the q-th nearest point
    dq = np.where(dq > 0, dq, 1.0)[:, None]  # all points at x0: uniform weights
    u = np.minimum(d / dq, 1.0)
    tri = (1.0 - u**3) ** 3
    w = tri if weights is None else tri * weights
    # robustness weights can wipe out a window; fall back to tricube alone
    w = np.where(w.sum(axis=1, keepdims=True) > 0, w, tri)
    s0 = w.sum(axis=1)
    if not np.all(s0 > 0):
        raise DataError(f"loess: degenerate window at x = {x0[np.argmin(s0)]}")
    wt = w * t
    s1, s2 = wt.sum(axis=1), (wt * t).sum(axis=1)
    sy, sty = w @ y, wt @ y
    det = s0 * s2 - s1 * s1
    line = det > n * _EPS * s0 * s2
    safe = np.where(line, det, 1.0)
    return np.where(line, (s2 * sy - s1 * sty) / safe, sy / s0)
