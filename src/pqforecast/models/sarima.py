"""Seasonal ARIMA estimated by conditional sum of squares.

Order selection is the stepwise AICc search of Hyndman & Khandakar (2008)
(see :func:`select_order`). Because candidates with different differencing
or conditioning lengths are not comparable on their natural residual
samples, every candidate is scored on a common evaluation window (starting
at the latest conditioning point across the admissible orders), with its
residual recursion started at the window's start from zero residuals. The
orders of the race are then nested: an order whose extra coefficients are
0.0 scores the smaller order's SSE bit for bit. The winner is re-fit on
its full natural window, its recursion started at its own conditioning
point. The objective sums the squares in one scalar loop over the window
(see :func:`_objective`).

An order is admissible when at least 16 residuals follow its first
computable one, counting, with a seasonal MA term, only those a season or
more later: the lag-52 tap of Θ reaches no earlier residual, so with
fewer, AICc would count Θ and the forecast apply it while the data barely
estimate it. Parameter vectors whose AR or MA polynomials have roots on or
inside the 1.001 circle are rejected during optimization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
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
    for bit. A pre-sample value is 0.0 and its taps come first, so their
    zero products leave the step's 0.0 as it is, as a filter that has not
    reached them yet does.
    """
    taps = [(j, float(ma_poly[j])) for j in range(len(ma_poly) - 1, 0, -1) if ma_poly[j] != 0.0]
    if not taps:
        return 0.0 + x
    lead = taps[0][0]
    e = [0.0] * lead
    push = e.append
    for v in x.tolist():
        a = 0.0
        for j, c in taps:
            a -= c * e[-j]
        push(a + v)
    return np.array(e[lead:])


def css_residuals(w: np.ndarray, order: SarimaOrder, params: np.ndarray) -> np.ndarray:
    """CSS residuals for the differenced series; entries before the
    conditioning point are zero."""
    ar_poly, ma_poly, const = _lag_polynomials(order, params.tolist())
    ncond = order.conditioning
    rhs = np.convolve(w, ar_poly)[: len(w)] - const
    resid = np.zeros(len(w))
    resid[ncond:] = _ma_invert(ma_poly, rhs[ncond:])
    return resid


def _arma_sse(lags: list[list[float]], f1: float, f2: float, t1: float, t2: float, c: float) -> float:
    """Sum of the squares of e_t = x_t - f1 x_{t-1} - f2 x_{t-2} - c
    - t1 e_{t-1} - t2 e_{t-2}, summed in order from 0.0, with zero residuals
    before the first: ``lags`` is ``x`` 0, 1 and 2 steps earlier."""
    x, x1, x2 = lags
    e2 = e1 = sse = 0.0
    for v, v1, v2 in zip(x, x1, x2):
        e = ((((v - f1 * v1) - f2 * v2) - c) - t1 * e1) - t2 * e2
        sse += e * e
        e2, e1 = e1, e
    return sse


def _seasonal_arma_sse(lags: list[list[float]], m: int, f1: float, f2: float, t1: float, t2: float,
                       c: float, F: float, T: float) -> float:
    """:func:`_arma_sse` with the seasonal AR factor 1 - F B^m and MA factor
    1 + T B^m: ``lags`` is ``x`` 0, 1, 2, m, m + 1 and m + 2 steps earlier.
    Each seasonal tap joins the chain of :func:`_arma_sse` where its lag
    polynomial puts it, so at F = T = 0 both give the same bits."""
    x, x1, x2, xm, xm1, xm2 = lags
    Ff1, Ff2, Tt1, Tt2 = F * f1, F * f2, T * t1, T * t2
    e = [0.0] * (m + 2)  # zero residuals before x, then each e_t
    push = e.append
    e_lags = (e, itertools.islice(e, 1, None), itertools.islice(e, 2, None))  # m + 2, m + 1, m steps earlier
    e2 = e1 = sse = 0.0
    for v, v1, v2, vm, vm1, vm2, em2, em1, em in zip(x, x1, x2, xm, xm1, xm2, *e_lags):
        et = (((((((((((v - f1 * v1) - f2 * v2) - F * vm) + Ff1 * vm1) + Ff2 * vm2) - c)
                   - t1 * e1) - t2 * e2) - T * em) - Tt1 * em1) - Tt2 * em2)
        sse += et * et
        e2, e1 = e1, et
        push(et)
    return sse


def _objective(w: np.ndarray, order: SarimaOrder, eval_from: int):
    """SSE of CSS residuals at differenced-scale indices >= eval_from, with
    the recursion started there: the residuals before ``eval_from`` are
    zero, the AR terms read the series before it. At the order's
    conditioning point these are :func:`css_residuals`. The coefficients
    an order lacks are 0.0, so orders scored from one ``eval_from`` are
    nested: padding a fit's coefficients with zeros reproduces its SSE bit
    for bit."""
    p, q, P, Q = order.p, order.q, order.P, order.Q
    # (coefficient slice, sign) per non-empty polynomial: AR ones first
    root_checks = [
        (part, sign)
        for part, sign in ((slice(0, p), -1.0), (slice(p + q, p + q + P), -1.0),
                           (slice(p, p + q), +1.0), (slice(p + q + P, p + q + P + Q), +1.0))
        if part.stop > part.start
    ]
    # where phi1, phi2, theta1, theta2, the constant, Phi and Theta sit in
    # the coefficients; -1 picks the 0.0 appended to them
    slots = [0 if p > 0 else -1, 1 if p > 1 else -1, p if q > 0 else -1, p + 1 if q > 1 else -1,
             order.n_coeffs if order.with_constant else -1]
    lag_steps = [0, 1, 2]
    seasonal, m = P + Q > 0, order.m
    if seasonal:
        slots += [p + q if P else -1, p + q + P if Q else -1]
        lag_steps += [m, m + 1, m + 2]
    pick = itemgetter(*slots)
    lead = lag_steps[-1]
    values = [0.0] * lead + w.tolist()  # zeros before w meet only zero coefficients
    lags = [values[lead + eval_from - k : len(values) - k] for k in lag_steps]

    def fn(params: np.ndarray) -> float:
        coeffs = params.tolist()
        for part, sign in root_checks:
            if _min_root_modulus(coeffs[part], sign) <= ROOT_MARGIN:
                return _PENALTY
        coeffs.append(0.0)
        if seasonal:
            sse = _seasonal_arma_sse(lags, m, *pick(coeffs))
        else:
            sse = _arma_sse(lags, *pick(coeffs))
        return sse if math.isfinite(sse) else _PENALTY

    return fn


def fit_css(w: np.ndarray, order: SarimaOrder, eval_from: int | None = None,
            max_iter: int = 400, x0: Sequence[float] | None = None) -> SarimaFit:
    """Estimate coefficients by minimizing the conditional sum of squares,
    from ``x0`` when it is given and the objective does not reject it, else
    from 0.1 per coefficient and the window's mean."""
    w = np.asarray(w, dtype=float)
    start = order.conditioning
    eval_from = max(start, eval_from if eval_from is not None else start)
    n_obs = len(w) - eval_from
    if n_obs < 1:
        raise DataError(f"sarima {order.label()}: no observations to fit")

    cold = [0.1] * order.n_coeffs
    bounds: list[tuple[float, float]] = [(-2.0, 2.0)] * order.n_coeffs
    if order.with_constant:
        center = float(np.mean(w[eval_from:]))
        spread = float(np.std(w[eval_from:])) + 1.0
        cold.append(center)
        bounds.append((center - 10.0 * spread, center + 10.0 * spread))

    objective = _objective(w, order, eval_from)
    f0 = _PENALTY if x0 is None else objective(np.asarray(x0, dtype=float))
    if f0 >= _PENALTY:
        x0, f0 = cold, objective(np.asarray(cold))
    result = nelder_mead(objective, x0, bounds, tol=1e-9 * max(f0, 1.0), max_iter=max_iter,
                         f_start=f0)
    ll = gaussian_loglik(result.objective_value, n_obs)
    return SarimaFit(order=order, params=result.argmin, sse=result.objective_value, n_obs=n_obs,
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
    ARMA order search.
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


def _admissible_orders(y: np.ndarray, decompose: Decompose | None) -> list[SarimaOrder]:
    """The orders the search may fit, simplest first; empty when nothing is
    admissible. All share one (d, D), degraded from
    :func:`choose_differencing`'s when the window is too short for it."""
    n = len(y)
    d, D = choose_differencing(y, decompose)
    for d_try, D_try in dict.fromkeys([(d, D), (d, 0), (0, D), (0, 0)]):
        admissible = [
            order for order in _candidate_orders(decompose is not None, d_try, D_try)
            if n - order.diff_loss >= MIN_LEN_AFTER_DIFF
            and n - order.natural_start - order.m * order.Q >= _MIN_COMMON_OBS
        ]
        if admissible:
            break
    return admissible


def _coefficient_counts(order: SarimaOrder) -> tuple[int, int, int, int]:
    return order.p, order.q, order.P, order.Q


#: Hyndman & Khandakar's start orders as (p, q, P, Q); P and Q are dropped
#: in a non-seasonal search.
_STARTS = ((2, 2, 1, 1), (0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))
#: The stepwise moves, tried in this order from the current best.
_MOVES = ((-1, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, 0), (0, 1, 0, 0),
          (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, 0, -1), (0, 0, 0, 1),
          (-1, -1, 0, 0), (1, 1, 0, 0), (0, 0, -1, -1), (0, 0, 1, 1))


def _warm_start(fit: SarimaFit, order: SarimaOrder) -> list[float]:
    """``fit``'s coefficients laid out for ``order``: each block [phi, theta,
    Phi, Theta] truncated or padded with 0.0, and the constant carried over."""
    params = fit.params.tolist()
    x0: list[float] = []
    at = 0
    for have, want in zip(_coefficient_counts(fit.order), _coefficient_counts(order)):
        x0 += (params[at : at + have] + [0.0] * want)[:want]
        at += have
    return x0 + params[at:]


def select_order(y: np.ndarray, decompose: Decompose | None) -> SarimaFit | None:
    """Stepwise AICc search (Hyndman & Khandakar 2008) on a common evaluation
    window; None when nothing is admissible. Seasonal orders are searched
    when ``decompose`` is given (see :func:`choose_differencing`).

    The admissible start orders among (2,d,2)(1,D,1), (0,d,0)(0,D,0),
    (1,d,0)(1,D,0) and (0,d,1)(0,D,1) are fitted from the cold start point,
    and the best becomes the current one. From it the search tries, in
    order, p-1, p+1, q-1, q+1, P-1, P+1, Q-1, Q+1, p and q together -1
    and +1, and P and Q together -1 and +1, and moves to the first
    admissible, not yet fitted neighbour with a lower AICc; it stops when
    none has one. Each neighbour starts from the current best's
    coefficients (see :func:`_warm_start`), and the winner's re-fit on its
    full natural window from its common-window argmin."""
    y = np.asarray(y, dtype=float)
    admissible = _admissible_orders(y, decompose)
    if not admissible:
        return None
    t0_common = max(o.natural_start for o in admissible)
    w, _ = _differenced(y, admissible[0])  # every admissible order shares d, D and m
    by_counts = {_coefficient_counts(order): order for order in admissible}

    def race(order: SarimaOrder, x0: list[float] | None = None) -> SarimaFit:
        return fit_css(w, order, eval_from=t0_common - order.diff_loss,
                       max_iter=60 + 40 * max(order.n_params, 1), x0=x0)

    seasonal = decompose is not None
    starts = {(p, q, P, Q) if seasonal else (p, q, 0, 0) for p, q, P, Q in _STARTS}
    fitted = [order for order in admissible if _coefficient_counts(order) in starts]
    best: SarimaFit | None = None
    for order in fitted:  # simplest first, so AICc ties resolve toward parsimony
        fit = race(order)
        if fit.aicc < np.inf and (best is None or fit.aicc < best.aicc):  # +inf or nan: inadmissible
            best = fit
    moved = best is not None
    while moved:
        moved = False
        for move in _MOVES:
            order = by_counts.get(tuple(c + step for c, step in zip(_coefficient_counts(best.order), move)))
            if order is None or order in fitted:
                continue
            fitted.append(order)
            fit = race(order, _warm_start(best, order))
            if fit.aicc < best.aicc:
                best, moved = fit, True
                break
    # re-fit the winner on its full natural window
    return None if best is None else fit_css(w, best.order, x0=best.params.tolist())


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
