from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import lfilter

from pqforecast.models import FitConfig, ModelId, SarimaGrid, fit_predict
from pqforecast.models.baselines import predict_snaive
from pqforecast.models.sarima import (
    SarimaOrder,
    _expand,
    _ma_invert,
    _min_root_modulus,
    choose_differencing,
    css_residuals,
    fit_css,
    forecast_fit,
    predict_arima,
    predict_sarima,
    select_order,
)

GRID = SarimaGrid()


def ar1_series(phi: float, n: int, seed: int, mean: float = 20.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    burn = 50
    e = rng.normal(size=n + burn)
    y = np.zeros(n + burn)
    for t in range(1, n + burn):
        y[t] = phi * y[t - 1] + e[t]
    return y[burn:] + mean


class TestRootCheck:
    def test_matches_numpy_roots(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 3))
            coeffs = rng.normal(size=k)
            for sign in (-1.0, 1.0):
                mine = _min_root_modulus(coeffs, sign)
                poly = np.concatenate([sign * coeffs[::-1], [1.0]])
                ref = float(np.min(np.abs(np.roots(poly))))
                assert mine == pytest.approx(ref, rel=1e-9)

    def test_zero_polynomial_has_no_roots(self):
        assert _min_root_modulus(np.array([]), -1.0) == np.inf
        assert _min_root_modulus(np.array([0.0, 0.0]), -1.0) == np.inf


class TestCssResiduals:
    def test_ar1_matches_manual_recursion(self, rng):
        w = rng.normal(size=60)
        phi = 0.6
        order = SarimaOrder(1, 0, 0, m=52)
        resid = css_residuals(w, order, np.array([phi, 0.0]))
        manual = np.zeros(60)
        manual[1:] = w[1:] - phi * w[:-1]
        assert resid == pytest.approx(manual, abs=1e-12)

    def test_ma1_matches_manual_recursion(self, rng):
        w = rng.normal(size=60)
        theta = 0.5
        order = SarimaOrder(0, 0, 1, m=52)
        resid = css_residuals(w, order, np.array([theta, 0.0]))
        manual = np.zeros(60)
        for t in range(60):
            manual[t] = w[t] - (theta * manual[t - 1] if t >= 1 else 0.0)
        assert resid == pytest.approx(manual, abs=1e-10)

    def test_seasonal_ar_conditioning(self, rng):
        w = rng.normal(size=120)
        order = SarimaOrder(0, 0, 0, P=1, m=52)
        resid = css_residuals(w, order, np.array([0.4, 0.0]))
        assert np.all(resid[:52] == 0.0)
        manual = w[52:] - 0.4 * w[:-52]
        assert resid[52:] == pytest.approx(manual, abs=1e-12)


class TestMaInversion:
    @staticmethod
    def _invertible(rng, q):
        while True:
            theta = rng.uniform(-1.5, 1.5, size=q)
            if _min_root_modulus(theta, +1.0) > 1.001:
                return theta

    @pytest.mark.parametrize("q,Q", [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
    def test_matches_lfilter_bit_for_bit(self, q, Q):
        rng = np.random.default_rng(100 + 10 * q + Q)
        for _ in range(40):
            theta = self._invertible(rng, q)
            Theta = rng.uniform(-0.99, 0.99, size=Q)
            ma_poly = _expand(theta, Theta, 52, +1.0)
            x = rng.normal(size=int(rng.integers(50, 104))) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(_ma_invert(ma_poly, x), lfilter([1.0], ma_poly, x))


class TestDifferencingHeuristic:
    def test_white_noise_needs_none(self, rng):
        y = rng.normal(10, 1, 105)
        assert choose_differencing(y, GRID, 52, seasonal=True) == (0, 0)

    def test_random_walk_needs_ordinary(self, rng):
        y = rng.normal(0, 1, 105).cumsum() + 50
        d, D = choose_differencing(y, GRID, 52, seasonal=True)
        assert d == 1 and D == 0

    def test_strong_seasonality_needs_seasonal(self):
        t = np.arange(105)
        y = 30 + 9 * np.sin(2 * np.pi * t / 52)
        d, D = choose_differencing(y, GRID, 52, seasonal=True)
        assert D == 1

    def test_constant_series(self):
        assert choose_differencing(np.full(105, 3.0), GRID, 52, seasonal=True) == (0, 0)


class TestOrderSelection:
    def test_white_noise_selects_constant_model(self):
        y = np.random.default_rng(42).normal(10.0, 1.0, size=105)
        fit = select_order(y, GRID, 52, seasonal=True)
        assert (fit.order.p, fit.order.d, fit.order.q) == (0, 0, 0)
        assert (fit.order.P, fit.order.D, fit.order.Q) == (0, 0, 0)
        assert fit.order.with_constant
        # fitted constant approximates the sample mean within 2 standard errors
        se = y.std() / np.sqrt(len(y))
        assert abs(fit.params[-1] - y.mean()) < 2 * se
        fc = forecast_fit(y, fit, 52)
        assert np.max(np.abs(fc - y.mean())) < 2 * se + 1e-9

    def test_exact_cycle_selects_seasonal_difference(self):
        cycle = 30 + 8 * np.sin(2 * np.pi * np.arange(52) / 52)
        y = np.concatenate([np.tile(cycle, 2), [cycle[0]]])
        fit = select_order(y, GRID, 52, seasonal=True)
        assert fit.order.D == 1
        fc = forecast_fit(y, fit, 52)
        assert fc == pytest.approx(predict_snaive(y, 52, 52), abs=1e-6)

    def test_ar1_monte_carlo_recovery(self):
        estimates = []
        for rep in range(30):
            y = ar1_series(0.8, 105, seed=1000 + rep)
            fit = fit_css(y, SarimaOrder(1, 0, 0, m=52))
            estimates.append(fit.params[0])
        assert abs(np.mean(estimates) - 0.8) <= 0.15

    def test_nothing_admissible_returns_none(self):
        y = np.random.default_rng(0).normal(size=105)
        tight = SarimaGrid(min_len_after_diff=200)
        assert select_order(y, tight, 52, seasonal=True) is None


class TestPredictWrappers:
    def test_sarima_fallback_to_snaive(self):
        y = np.abs(np.random.default_rng(3).normal(30, 3, 105))
        cfg = FitConfig(sarima=SarimaGrid(min_len_after_diff=200))
        fit = fit_predict(ModelId.SARIMA, y, 52, cfg)
        assert fit.notes and "fallback" in fit.notes[0]
        assert np.array_equal(fit.values, predict_snaive(y, 52, 52))

    def test_nonseasonal_wrapper(self):
        y = ar1_series(0.5, 105, seed=7)
        fc, fit = predict_arima(y, 52, GRID)
        assert fit is not None
        assert fit.order.P == 0 and fit.order.D == 0 and fit.order.Q == 0
        assert len(fc) == 52
        assert np.all(np.isfinite(fc))

    def test_seasonal_wrapper_horizon(self):
        t = np.arange(105)
        y = 30 + 6 * np.sin(2 * np.pi * t / 52) + np.random.default_rng(1).normal(0, 1, 105)
        fc, fit = predict_sarima(y, 52, GRID, 52)
        assert fit is not None and fit.order.D == 1
        assert len(fc) == 52

    def test_drifting_series_forecast_tracks_level(self):
        # forecast from a differenced model must continue near the last level
        y = np.linspace(20, 60, 105) + np.random.default_rng(2).normal(0, 0.5, 105)
        fc, fit = predict_sarima(y, 52, GRID, 52)
        assert fit.order.d == 1
        assert 50.0 < fc[0] < 70.0
