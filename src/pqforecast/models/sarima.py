"""Seasonal ARIMA estimated by conditional sum of squares.

Order selection runs an AICc grid search. Because candidates with
different differencing or conditioning lengths are not comparable on
their natural residual samples, every candidate is scored on a common
evaluation window (starting at the latest conditioning point across the
grid) so the AICc race is fair; the winner is then re-fit on its full
natural window. An order is admissible when at least 16 residuals follow
its first computable one, counting, with a seasonal MA term, only those a
season or more later: the lag-52 tap of Θ reaches no earlier residual, so
with fewer, AICc would count Θ and the forecast apply it while the data
barely estimate it. Parameter vectors whose AR or MA polynomials have
roots on or inside the 1.001 circle are rejected during optimization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import DataError
from ..numerics import Decomposition, aicc, difference, gaussian_loglik, integrate_forecast, nelder_mead
from .base import SEASONAL_PERIOD, standardize

ROOT_MARGIN = 1.001
_PENALTY = 1e12
_MIN_COMMON_OBS = 16
_EPS = float(np.finfo(float).eps)

#: The order search of SARIMA and of STL-ARIMA's adjusted-series ARIMA; the
#: differencing orders d and D are each 0 or 1 (see choose_differencing).
MAX_P = MAX_Q = 2
MAX_SEASONAL_P = MAX_SEASONAL_Q = 1
MAX_ORDER = 4  # cap on p + q + P + Q
MIN_LEN_AFTER_DIFF = 30


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


def _min_root_modulus(coeffs: Sequence[float], sign: float) -> float:
    """Smallest root modulus of 1 + sign * (c1 z + c2 z^2), in closed form.
    Each factor of a lag polynomial the order search builds has at most two
    coefficients (``MAX_P``, ``MAX_Q`` <= 2, seasonal orders <= 1)."""
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0.0:
        k -= 1
    if k == 0:
        return math.inf
    if k == 1:
        return 1.0 / abs(sign * coeffs[0])
    if k > 2:
        raise ValueError(f"root check of {k} coefficients; the order search builds at most 2")
    # a z^2 + b z + 1 = 0
    a = sign * coeffs[1]
    b = sign * coeffs[0]
    disc = b * b - 4.0 * a
    if disc < 0:
        return math.sqrt(1.0 / abs(a))  # conjugate pair: |z|^2 = 1/|a|
    sq = math.sqrt(disc)
    r1 = (-b + sq) / (2.0 * a)
    r2 = (-b - sq) / (2.0 * a)
    return min(abs(r1), abs(r2))


def _expand(nonseasonal: Sequence[float], seasonal: Sequence[float], lag: int, sign: float) -> list[float]:
    """(1 + sign*sum c_i B^i)(1 + sign*sum C_j B^{j*lag}) as a lag polynomial."""
    k = len(nonseasonal)
    poly = [0.0] * (k + lag * len(seasonal) + 1)
    poly[0] = 1.0
    poly[1 : k + 1] = [sign * c for c in nonseasonal]
    for j, coeff in enumerate(seasonal, start=1):
        poly[j * lag] += sign * coeff
        for i, c in enumerate(nonseasonal, start=j * lag + 1):
            poly[i] += coeff * c  # sign^2 = 1
    return poly


def _lag_polynomials(order: SarimaOrder, coeffs: list[float]) -> tuple[list[float], list[float], float]:
    """AR and MA lag polynomials and the constant of ``coeffs``, laid out
    as [phi..., theta..., Phi..., Theta..., const?]."""
    p, q, P, Q = order.p, order.q, order.P, order.Q
    ar_poly = _expand(coeffs[:p], coeffs[p + q : p + q + P], order.m, -1.0)  # 1 - phi B ... acting on w
    ma_poly = _expand(coeffs[p : p + q], coeffs[p + q + P : p + q + P + Q], order.m, +1.0)
    const = coeffs[p + q + P + Q] if order.with_constant else 0.0
    return ar_poly, ma_poly, const


def _ma_invert(ma_poly: Sequence[float], x: np.ndarray) -> np.ndarray:
    """Solve ``ma_poly(B) e = x`` for ``e`` with zero pre-sample values.

    Each step starts from ``0.0`` and subtracts the lagged terms from the
    highest lag down, the order of a direct-form-II-transposed IIR filter,
    so the result matches ``scipy.signal.lfilter([1.0], ma_poly, x)`` bit
    for bit. The tap at lag j joins at step j, so a tap at lag ``len(x)`` or
    more never joins and is dropped. A warm-up runs the steps before the
    highest lag, and after it no lag is tested. The taps at lag 1, and at
    lags 2 and 1, have unrolled loops.
    """
    taps = [(j, float(ma_poly[j])) for j in range(min(len(ma_poly), len(x)) - 1, 0, -1) if ma_poly[j] != 0.0]
    if not taps:
        return 0.0 + x
    values = x.tolist()
    warm = taps[0][0]  # below len(x)
    e: list[float] = []
    for t in range(warm):
        a = 0.0
        for j, c in taps:
            if j <= t:
                a -= c * e[t - j]
        e.append(a + values[t])
    push = e.append
    lags = [j for j, _ in taps]
    if lags == [1]:
        (_, c1), = taps
        e1 = e[-1]
        for v in values[warm:]:
            e1 = (0.0 - c1 * e1) + v
            push(e1)
    elif lags == [2, 1]:
        (_, c2), (_, c1) = taps
        e2, e1 = e[-2], e[-1]
        for v in values[warm:]:
            e2, e1 = e1, ((0.0 - c2 * e2) - c1 * e1) + v
            push(e1)
    else:
        for v in values[warm:]:
            a = 0.0
            for j, c in taps:
                a -= c * e[-j]
            push(a + v)
    return np.array(e)


def css_residuals(w: np.ndarray, order: SarimaOrder, params: np.ndarray) -> np.ndarray:
    """CSS residuals for the differenced series; entries before the
    conditioning point are zero."""
    ar_poly, ma_poly, const = _lag_polynomials(order, params.tolist())
    ncond = order.conditioning
    rhs = np.convolve(w, ar_poly)[: len(w)] - const
    resid = np.zeros(len(w))
    resid[ncond:] = _ma_invert(ma_poly, rhs[ncond:])
    return resid


def _objective(w: np.ndarray, order: SarimaOrder, eval_from: int):
    """SSE of CSS residuals at differenced-scale indices >= eval_from."""
    p, q, P, Q = order.p, order.q, order.P, order.Q
    # (coefficient slice, sign) per non-empty polynomial: AR ones first
    root_checks = [
        (part, sign)
        for part, sign in ((slice(0, p), -1.0), (slice(p + q, p + q + P), -1.0),
                           (slice(p, p + q), +1.0), (slice(p + q + P, p + q + P + Q), +1.0))
        if part.stop > part.start
    ]

    def fn(params: np.ndarray) -> float:
        coeffs = params.tolist()
        for part, sign in root_checks:
            if _min_root_modulus(coeffs[part], sign) <= ROOT_MARGIN:
                return _PENALTY
        resid = css_residuals(w, order, params)
        tail = resid[eval_from:]
        sse = float(np.dot(tail, tail))
        return sse if math.isfinite(sse) else _PENALTY

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
        result = nelder_mead(objective, x0, bounds, tol=1e-9 * max(f0, 1.0), max_iter=max_iter,
                             f_start=f0)
        params = result.argmin
        sse = result.objective_value

    ll = gaussian_loglik(sse, n_obs)
    return SarimaFit(order=order, params=params, sse=sse, n_obs=n_obs,
                     aicc=aicc(ll, order.n_params, n_obs))


def _candidate_orders(seasonal: bool, d: int, D: int) -> list[SarimaOrder]:
    ps = range(MAX_P + 1)
    qs = range(MAX_Q + 1)
    Ps = range(MAX_SEASONAL_P + 1) if seasonal else (0,)
    Qs = range(MAX_SEASONAL_Q + 1) if seasonal else (0,)
    orders = [
        SarimaOrder(p, d, q, P, D, Q, SEASONAL_PERIOD if seasonal else 1)
        for p, q, P, Q in itertools.product(ps, qs, Ps, Qs)
        if p + q + P + Q <= MAX_ORDER
    ]
    # simple models first so AICc ties resolve toward parsimony
    orders.sort(key=lambda o: (o.n_coeffs, o.p, o.q, o.P, o.Q))
    return orders


def seasonal_strength(decomp: Decomposition) -> float:
    """Share of non-remainder variance in the detrended series, in [0, 1].

    0 when the detrended variance is within rounding of the window's
    values, as for a constant window: the ratio would then measure the
    decomposition's rounding residue, not the data.
    """
    detrended = decomp.seasonal + decomp.remainder
    scale = float(np.max(np.abs(decomp.trend + detrended)))
    with np.errstate(over="ignore"):
        var_detrended, var_remainder = float(np.var(detrended)), float(np.var(decomp.remainder))
    if not math.isfinite(var_detrended + var_remainder):  # squares overflow past ~1e154
        var_detrended = float(np.var(detrended / scale))  # the ratio does not depend on scale
        var_remainder = float(np.var(decomp.remainder / scale))
        scale = 1.0
    if math.sqrt(var_detrended) <= _EPS * len(detrended) * scale:  # unsquared: no overflow
        return 0.0
    return max(0.0, 1.0 - var_remainder / var_detrended)


_SEASONAL_STRENGTH_THRESHOLD = 0.64

#: Returns the STL split of the training window, computing it on first use.
Decompose = Callable[[], Decomposition]


def choose_differencing(y: np.ndarray, decompose: Decompose | None) -> tuple[int, int]:
    """Differencing orders from data heuristics: seasonal differencing when
    the seasonal component dominates the detrended variance, ordinary
    differencing when it reduces the standard deviation.

    ``decompose`` is None for a non-seasonal model. Otherwise the model is
    seasonal at ``SEASONAL_PERIOD`` and ``decompose`` gives the STL split of
    the training window, which may be ``y`` in another affine frame, since
    the seasonal strength does not depend on it; it is called only when
    seasonal differencing is possible.

    One-step AICc cannot arbitrate differencing for long-horizon use (a
    near-unit-root ARMA shadows a seasonal cycle one step ahead but decays
    to the mean over the horizon), so these orders are fixed before the
    ARMA grid search.
    """
    D = 0
    if decompose is not None and len(y) >= 2 * SEASONAL_PERIOD:
        if seasonal_strength(decompose()) > _SEASONAL_STRENGTH_THRESHOLD:
            D = 1
    z = difference(y, SEASONAL_PERIOD) if D else y
    d = 0
    if len(z) > 2:
        if np.std(z[1:] - z[:-1]) < np.std(z):
            d = 1
    return d, D


def _differenced(y: np.ndarray, order: SarimaOrder) -> tuple[np.ndarray, list[tuple[np.ndarray, int]]]:
    """Differenced series plus (history, lag) stages for forecast inversion."""
    stages = []
    w = y
    for _ in range(order.D):
        stages.append((w, order.m))
        w = difference(w, order.m)
    for _ in range(order.d):
        stages.append((w, 1))
        w = difference(w, 1)
    return w, stages


def select_order(y: np.ndarray, decompose: Decompose | None) -> SarimaFit | None:
    """AICc grid search on a common evaluation window; None when nothing is
    admissible. Seasonal orders are searched when ``decompose`` is given
    (see :func:`choose_differencing`)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    seasonal = decompose is not None

    d, D = choose_differencing(y, decompose)
    # degrade differencing when the series is too short for the chosen orders
    for d_try, D_try in dict.fromkeys([(d, D), (d, 0), (0, D), (0, 0)]):
        admissible = [
            order for order in _candidate_orders(seasonal, d_try, D_try)
            if n - order.diff_loss >= MIN_LEN_AFTER_DIFF
            and n - order.natural_start - order.m * order.Q >= _MIN_COMMON_OBS
        ]
        if admissible:
            break
    if not admissible:
        return None

    t0_common = max(o.natural_start for o in admissible)
    w, _ = _differenced(y, admissible[0])  # every admissible order shares d, D and m

    best: SarimaFit | None = None
    for order in admissible:
        fit = fit_css(w, order, eval_from=t0_common - order.diff_loss,
                      max_iter=60 + 40 * max(order.n_params, 1))
        if fit.aicc < np.inf and (best is None or fit.aicc < best.aicc):  # +inf or nan: inadmissible
            best = fit
    # re-fit the winner on its full natural window
    return None if best is None else fit_css(w, best.order)


def forecast_fit(y: np.ndarray, fit: SarimaFit, h: int) -> np.ndarray:
    """Recursive point forecast from a fitted model, inverted to the original scale."""
    y = np.asarray(y, dtype=float)
    order = fit.order
    w, stages = _differenced(y, order)
    ar_poly, ma_poly, const = _lag_polynomials(order, fit.params.tolist())
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


def predict_arima(y: np.ndarray, h: int, decompose: Decompose | None = None) -> tuple[np.ndarray, SarimaFit | None]:
    """Order selection (seasonal at ``SEASONAL_PERIOD`` when ``decompose``
    gives the STL split of ``y``) and forecast; (values, None) means the
    caller must fall back."""
    z, mu, sd = standardize(np.asarray(y, dtype=float))
    fit = select_order(z, decompose)
    if fit is None:
        return np.array([]), None
    return mu + sd * forecast_fit(z, fit, h), fit
