"""Seasonal ARIMA estimated by conditional sum of squares.

Order selection runs an AICc grid search. Because candidates with
different differencing or conditioning lengths are not comparable on
their natural residual samples, every candidate is scored on a common
evaluation window (starting at the latest conditioning point across the
grid) so the AICc race is fair; the winner is then re-fit on its full
natural window. Parameter vectors whose AR or MA polynomials have roots
on or inside the 1.001 circle are rejected during optimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DataError
from ..numerics import Decomposition, aicc, difference, gaussian_loglik, integrate_forecast, nelder_mead
from .base import SarimaGrid, standardize

ROOT_MARGIN = 1.001
_PENALTY = 1e12
_MIN_COMMON_OBS = 16


@dataclass(frozen=True)
class SarimaOrder:
    p: int
    d: int
    q: int
    P: int = 0
    D: int = 0
    Q: int = 0
    m: int = 1

    @property
    def n_coeffs(self) -> int:
        return self.p + self.q + self.P + self.Q

    @property
    def with_constant(self) -> bool:
        return self.d + self.D == 0

    @property
    def n_params(self) -> int:
        return self.n_coeffs + (1 if self.with_constant else 0)

    @property
    def conditioning(self) -> int:
        """Differenced-scale index of the first computable residual."""
        return self.p + self.m * self.P

    @property
    def diff_loss(self) -> int:
        return self.d + self.m * self.D

    @property
    def natural_start(self) -> int:
        """Original-scale index of the first computable residual."""
        return self.diff_loss + self.conditioning

    def label(self) -> str:
        return f"({self.p},{self.d},{self.q})({self.P},{self.D},{self.Q})[{self.m}]"


@dataclass
class SarimaFit:
    order: SarimaOrder
    params: np.ndarray  # [phi..., theta..., Phi..., Theta..., const?]
    sse: float
    n_obs: int
    aicc: float


def _min_root_modulus(coeffs: np.ndarray, sign: float) -> float:
    """Smallest root modulus of 1 + sign * (c1 z + c2 z^2 + ...)."""
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0.0:
        k -= 1
    if k == 0:
        return np.inf
    if k == 1:
        return 1.0 / abs(sign * coeffs[0])
    if k == 2:
        # a z^2 + b z + 1 = 0
        a = sign * coeffs[1]
        b = sign * coeffs[0]
        disc = b * b - 4.0 * a
        if disc < 0:
            return float(np.sqrt(1.0 / abs(a)))  # conjugate pair: |z|^2 = 1/|a|
        sq = np.sqrt(disc)
        r1 = (-b + sq) / (2.0 * a)
        r2 = (-b - sq) / (2.0 * a)
        return float(min(abs(r1), abs(r2)))
    poly = np.concatenate([sign * coeffs[::-1], [1.0]])
    roots = np.roots(poly)
    return float(np.min(np.abs(roots))) if len(roots) else np.inf


def _unpack(params: np.ndarray, order: SarimaOrder):
    p, q, P, Q = order.p, order.q, order.P, order.Q
    phi = params[:p]
    theta = params[p : p + q]
    Phi = params[p + q : p + q + P]
    Theta = params[p + q + P : p + q + P + Q]
    const = params[p + q + P + Q] if order.with_constant else 0.0
    return phi, theta, Phi, Theta, const


def _expand(nonseasonal: np.ndarray, seasonal: np.ndarray, m: int, sign: float) -> np.ndarray:
    """(1 + sign*sum c_i B^i)(1 + sign*sum C_j B^{jm}) as a lag polynomial."""
    k = len(nonseasonal)
    poly = np.zeros(k + m * len(seasonal) + 1)
    poly[0] = 1.0
    poly[1 : k + 1] = sign * nonseasonal
    for j, coeff in enumerate(seasonal, start=1):
        poly[j * m] += sign * coeff
        if k:
            poly[j * m + 1 : j * m + 1 + k] += coeff * nonseasonal  # sign^2 = 1
    return poly


def _ma_invert(ma_poly: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve ``ma_poly(B) e = x`` for ``e`` with zero pre-sample values.

    Each step subtracts the lagged terms from the highest lag down, the
    order of a direct-form-II-transposed IIR filter, so the result matches
    ``scipy.signal.lfilter([1.0], ma_poly, x)`` bit for bit.
    """
    taps = [(j, float(ma_poly[j])) for j in range(len(ma_poly) - 1, 0, -1) if ma_poly[j] != 0.0]
    e: list[float] = []
    for t, value in enumerate(x.tolist()):
        acc = 0.0
        for j, coeff in taps:
            if j <= t:
                acc -= coeff * e[t - j]
        e.append(acc + value)
    return np.array(e)


def css_residuals(w: np.ndarray, order: SarimaOrder, params: np.ndarray) -> np.ndarray:
    """CSS residuals for the differenced series; entries before the
    conditioning point are zero."""
    phi, theta, Phi, Theta, const = _unpack(params, order)
    ar_poly = _expand(phi, Phi, order.m, -1.0)  # 1 - phi B ... acting on w
    ma_poly = _expand(theta, Theta, order.m, +1.0)
    ncond = order.conditioning
    rhs = np.convolve(w, ar_poly)[: len(w)] - const
    resid = np.zeros(len(w))
    if len(w) > ncond:
        if len(ma_poly) == 1:  # pure AR: no filtering needed
            resid[ncond:] = rhs[ncond:]
        else:
            resid[ncond:] = _ma_invert(ma_poly, rhs[ncond:])
    return resid


def _objective(w: np.ndarray, order: SarimaOrder, eval_from: int):
    """SSE of CSS residuals at differenced-scale indices >= eval_from."""

    def fn(params: np.ndarray) -> float:
        phi, theta, Phi, Theta, _ = _unpack(params, order)
        for coeffs in (phi, Phi):
            if _min_root_modulus(coeffs, -1.0) <= ROOT_MARGIN:
                return _PENALTY
        for coeffs in (theta, Theta):
            if _min_root_modulus(coeffs, +1.0) <= ROOT_MARGIN:
                return _PENALTY
        resid = css_residuals(w, order, params)
        sse = float(np.dot(resid[eval_from:], resid[eval_from:]))
        return sse if np.isfinite(sse) else _PENALTY

    return fn


def fit_css(w: np.ndarray, order: SarimaOrder, eval_from: int | None = None,
            max_iter: int = 400) -> SarimaFit:
    """Estimate coefficients by minimizing the conditional sum of squares."""
    w = np.asarray(w, dtype=float)
    start = order.conditioning
    eval_from = max(start, eval_from if eval_from is not None else start)
    n_obs = len(w) - eval_from
    if n_obs < 1:
        raise DataError(f"sarima {order.label()}: no observations to fit")

    x0 = [0.1] * order.n_coeffs
    bounds: list[tuple[float, float]] = [(-2.0, 2.0)] * order.n_coeffs
    if order.with_constant:
        center = float(np.mean(w[eval_from:]))
        spread = float(np.std(w[eval_from:])) + 1.0
        x0.append(center)
        bounds.append((center - 10.0 * spread, center + 10.0 * spread))

    objective = _objective(w, order, eval_from)
    if order.n_params == 0:
        params = np.array([])
        sse = objective(params)
    else:
        f0 = objective(np.asarray(x0))
        result = nelder_mead(objective, x0, bounds, tol=1e-9 * max(f0, 1.0), max_iter=max_iter)
        params = result.argmin
        sse = result.objective_value

    ll = gaussian_loglik(sse, n_obs)
    return SarimaFit(order=order, params=params, sse=sse, n_obs=n_obs,
                     aicc=aicc(ll, order.n_params, n_obs))


def _candidate_orders(grid: SarimaGrid, m: int, seasonal: bool, d: int, D: int) -> list[SarimaOrder]:
    ps = range(grid.max_p + 1)
    qs = range(grid.max_q + 1)
    Ps = range(grid.max_P + 1) if seasonal else (0,)
    Qs = range(grid.max_Q + 1) if seasonal else (0,)
    orders = [
        SarimaOrder(p, d, q, P, D, Q, m if seasonal else 1)
        for p, q, P, Q in itertools.product(ps, qs, Ps, Qs)
        if p + q + P + Q <= grid.max_order
    ]
    # simple models first so AICc ties resolve toward parsimony
    orders.sort(key=lambda o: (o.n_coeffs, o.p, o.q, o.P, o.Q))
    return orders


def seasonal_strength(decomp: Decomposition) -> float:
    """Share of non-remainder variance in the detrended series, in [0, 1]."""
    detrended = decomp.seasonal + decomp.remainder
    var_detrended = float(np.var(detrended))
    if var_detrended <= 0:
        return 0.0
    return max(0.0, 1.0 - float(np.var(decomp.remainder)) / var_detrended)


_SEASONAL_STRENGTH_THRESHOLD = 0.64

#: Returns the STL split of the training window, computing it on first use.
Decompose = Callable[[], Decomposition]


def choose_differencing(y: np.ndarray, grid: SarimaGrid, m: int,
                        decompose: Decompose | None) -> tuple[int, int]:
    """Differencing orders from data heuristics: seasonal differencing when
    the seasonal component dominates the detrended variance, ordinary
    differencing when it reduces the standard deviation.

    ``decompose`` is None for a non-seasonal model. Otherwise it gives the
    STL split of the training window, which may be ``y`` in another affine
    frame, since the seasonal strength does not depend on it; it is called
    only when seasonal differencing is possible.

    One-step AICc cannot arbitrate differencing for long-horizon use (a
    near-unit-root ARMA shadows a seasonal cycle one step ahead but decays
    to the mean over the horizon), so these orders are fixed before the
    ARMA grid search.
    """
    D = 0
    if decompose is not None and grid.max_D >= 1 and len(y) >= 2 * m:
        if seasonal_strength(decompose()) > _SEASONAL_STRENGTH_THRESHOLD:
            D = 1
    z = difference(y, m, 1) if D else y
    d = 0
    if grid.max_d >= 1 and len(z) > 2:
        if np.std(z[1:] - z[:-1]) < np.std(z):
            d = 1
    return d, D


def _differenced(y: np.ndarray, order: SarimaOrder) -> tuple[np.ndarray, list[tuple[np.ndarray, int]]]:
    """Differenced series plus (history, lag) stages for forecast inversion."""
    stages = []
    w = y
    for _ in range(order.D):
        stages.append((w, order.m))
        w = difference(w, order.m, 1)
    for _ in range(order.d):
        stages.append((w, 1))
        w = difference(w, 1, 1)
    return w, stages


def select_order(y: np.ndarray, grid: SarimaGrid, m: int,
                 decompose: Decompose | None) -> SarimaFit | None:
    """AICc grid search on a common evaluation window; None when nothing is
    admissible. Seasonal orders are searched when ``decompose`` is given
    (see :func:`choose_differencing`)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    seasonal = decompose is not None

    d, D = choose_differencing(y, grid, m, decompose)
    admissible = []
    # degrade differencing when the series is too short for the chosen orders
    for d_try, D_try in dict.fromkeys([(d, D), (d, 0), (0, D), (0, 0)]):
        admissible = [
            order for order in _candidate_orders(grid, m, seasonal, d_try, D_try)
            if n - order.diff_loss >= grid.min_len_after_diff
            and n - order.natural_start >= _MIN_COMMON_OBS
        ]
        if admissible:
            break
    if not admissible:
        return None

    t0_common = max(o.natural_start for o in admissible)

    best: SarimaFit | None = None
    for order in admissible:
        w, _ = _differenced(y, order)
        fit = fit_css(w, order, eval_from=t0_common - order.diff_loss,
                      max_iter=60 + 40 * max(order.n_params, 1))
        if not fit.aicc < np.inf:  # +inf or nan: inadmissible
            continue
        if best is None or fit.aicc < best.aicc:
            best = fit
    if best is None:
        return None

    # re-fit the winner on its full natural window
    w, _ = _differenced(y, best.order)
    return fit_css(w, best.order)


def forecast_fit(y: np.ndarray, fit: SarimaFit, h: int) -> np.ndarray:
    """Recursive point forecast from a fitted model, inverted to the original scale."""
    y = np.asarray(y, dtype=float)
    order = fit.order
    w, stages = _differenced(y, order)
    phi, theta, Phi, Theta, const = _unpack(fit.params, order)
    ar_poly = _expand(phi, Phi, order.m, -1.0)
    ma_poly = _expand(theta, Theta, order.m, +1.0)
    resid = css_residuals(w, order, fit.params)

    w_ext = np.concatenate([w, np.zeros(h)])
    e_ext = np.concatenate([resid, np.zeros(h)])
    n_w = len(w)
    for step in range(h):
        t = n_w + step
        value = const
        for k in range(1, len(ar_poly)):
            if t - k >= 0:
                value -= ar_poly[k] * w_ext[t - k]
        for j in range(1, len(ma_poly)):
            if 0 <= t - j < n_w:
                value += ma_poly[j] * e_ext[t - j]
        w_ext[t] = value

    fc = w_ext[n_w:]
    for history, lag in reversed(stages):
        fc = integrate_forecast(history, fc, lag)
    return fc


def predict_sarima(y: np.ndarray, h: int, grid: SarimaGrid, m: int,
                   decompose: Decompose) -> tuple[np.ndarray, SarimaFit | None]:
    """Full seasonal selection + forecast; (values, None) means the caller
    must fall back. ``decompose`` gives the STL split of ``y``."""
    z, mu, sd = standardize(np.asarray(y, dtype=float))
    fit = select_order(z, grid, m, decompose)
    if fit is None:
        return np.array([]), None
    return mu + sd * forecast_fit(z, fit, h), fit


def predict_arima(y: np.ndarray, h: int, grid: SarimaGrid) -> tuple[np.ndarray, SarimaFit | None]:
    """Non-seasonal selection + forecast for seasonally adjusted series."""
    z, mu, sd = standardize(np.asarray(y, dtype=float))
    fit = select_order(z, grid, 1, None)
    if fit is None:
        return np.array([]), None
    return mu + sd * forecast_fit(z, fit, h), fit
