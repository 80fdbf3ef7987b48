from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqforecast.errors import ConfigError, DataError
from pqforecast.models import (
    ForecastBlock,
    ModelId,
    PUBLIC_MODELS,
    fit_predict,
    model_from_name,
)
from pqforecast.models.base import standardize
from pqforecast.models.baselines import predict_drift, predict_naive, predict_snaive
from pqforecast.models.fourier_trend import predict_fourier_trend
from pqforecast.models.smoothing import (
    PARAM_HI,
    PARAM_LO,
    _holt_run,
    _hw_run,
    predict_es,
    predict_holt,
    predict_hw,
)
from pqforecast.models.stl_models import TrainingWindow

from conftest import periodic_train


class TestModelIds:
    def test_public_set_has_eight_members(self):
        assert len(PUBLIC_MODELS) == 8
        assert [m.value for m in PUBLIC_MODELS] == [
            "SNaive", "HW", "SARIMA", "Prophet",
            "STL-Drift", "STL-ES", "STL-Holt", "STL-ARIMA",
        ]

    def test_lookup_by_name(self):
        assert model_from_name("snaive") is ModelId.SNAIVE
        assert model_from_name("STL-ARIMA") is ModelId.STL_ARIMA
        with pytest.raises(ConfigError, match="SNaive"):
            model_from_name("nope")

    def test_only_public_models_are_selectable(self):
        assert list(ModelId) == list(PUBLIC_MODELS)
        for name in ("Naive", "Drift", "ES", "Holt", "ARIMA"):
            with pytest.raises(ConfigError, match="STL-ARIMA"):
                model_from_name(name)


class TestBaselines:
    def test_naive_repeats_last(self):
        out = predict_naive(np.array([1.0, 9.0, 4.0]), 52)
        assert out.tolist() == [4.0] * 52

    def test_drift_exact_line(self):
        assert predict_drift(np.array([0.0, 1, 2, 3]), 2).tolist() == [4.0, 5.0]

    def test_drift_negative_slope_before_clamp(self):
        assert predict_drift(np.array([3.0, 1.0]), 1).tolist() == [-1.0]

    def test_drift_clamped_in_forecast(self):
        t = np.arange(105, dtype=float)
        y = 60.0 - 0.55 * t + 2.0 * np.sin(2 * np.pi * t / 52)
        raw = fit_predict(ModelId.STL_DRIFT, TrainingWindow(y)).values
        assert raw.min() < 0.0
        block = ForecastBlock("s:UNB:220", [ModelId.STL_DRIFT.value], raw[None])
        assert np.all(block.values >= 0.0)

    def test_snaive_two_identical_years(self):
        cycle = periodic_train(52)
        out = predict_snaive(np.tile(cycle, 2), 52)
        assert np.array_equal(out, cycle)

    def test_snaive_105_week_index(self):
        y = np.arange(105, dtype=float)
        # step 1 of the horizon repeats week 54 (1-based), i.e. index 53
        assert predict_snaive(y, 1)[0] == y[53]

    def test_snaive_requires_full_period(self):
        with pytest.raises(DataError):
            predict_snaive(np.ones(51), 52)

    def test_snaive_wraps_beyond_one_period(self):
        cycle = periodic_train(52)
        out = predict_snaive(np.tile(cycle, 2), 104)
        assert np.array_equal(out, np.tile(cycle, 2))


class TestSmoothing:
    def test_constant_fixed_point(self):
        const = np.full(105, 12.5)
        assert predict_es(const, 52) == pytest.approx(np.full(52, 12.5), abs=1e-9)
        assert predict_holt(const, 52) == pytest.approx(np.full(52, 12.5), abs=1e-9)
        assert predict_hw(const, 52) == pytest.approx(np.full(52, 12.5), abs=1e-9)

    def test_holt_continues_exact_line(self):
        t = np.arange(1, 106, dtype=float)
        y = 50.0 + 0.3 * t
        expected = 50.0 + 0.3 * (105 + np.arange(1, 53))
        out = predict_holt(y, 52)
        assert np.max(np.abs(out - expected) / expected) < 1e-3

    def test_hw_matches_snaive_on_periodic(self):
        train = np.tile(periodic_train(52), 2)
        hw = predict_hw(train, 52)
        snaive = predict_snaive(train, 52)
        assert np.max(np.abs(hw - snaive) / np.abs(snaive)) < 0.01

    def test_hw_needs_two_seasons(self):
        with pytest.raises(DataError, match="two seasons"):
            predict_hw(np.ones(103), 52)

    @pytest.mark.parametrize("predict", [predict_es, predict_holt])
    def test_es_and_holt_need_two_seasons(self, predict):
        with pytest.raises(DataError, match="two seasons"):
            predict(np.ones(103), 52)
        assert np.isfinite(predict(np.ones(104), 52)).all()

    def test_es_flat_forecast(self):
        out = predict_es(periodic_train(105), 52)
        assert np.ptp(out) == 0.0


# -- oracle: the smoothing recursions on numpy scalars, before they ran on floats

def _reference_ses_run(y, alpha, level0):
    level = level0
    sse = 0.0
    for value in y:
        err = value - level
        sse += err * err
        level += alpha * err
    return sse, level


def _reference_holt_run(y, alpha, beta, level0, trend0):
    level, trend = level0, trend0
    sse = 0.0
    for value in y:
        prior = level + trend
        err = value - prior
        sse += err * err
        new_level = prior + alpha * err
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return sse, level, trend


def _reference_hw_run(y, alpha, beta, gamma, level0, trend0, seasonal0):
    period = len(seasonal0)
    n = len(y)
    seasonal = np.empty(n + period, dtype=float)
    seasonal[:period] = seasonal0
    level, trend = level0, trend0
    sse = 0.0
    for t in range(n):
        s = seasonal[t]
        prior = level + trend
        err = y[t] - (prior + s)
        sse += err * err
        new_level = alpha * (y[t] - s) + (1.0 - alpha) * prior
        seasonal[t + period] = gamma * (y[t] - prior) + (1.0 - gamma) * s
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        level = new_level
    return sse, level, trend, seasonal


def _bits(values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


class TestSmoothingRecursionsReference:
    """The float recursions equal the numpy-scalar ones bit for bit, with the
    parameters as the optimizer hands them over (numpy scalars)."""

    params = st.floats(PARAM_LO, PARAM_HI).map(np.float64)

    @staticmethod
    def window(seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        z = np.sin(2 * np.pi * t / 52) + 0.01 * t + rng.normal(0.0, 0.5, n)
        return (z - z.mean()) / z.std()

    @settings(max_examples=60, deadline=None)
    @given(alpha=params, seed=st.integers(0, 2**32 - 1), n=st.integers(10, 160))
    def test_ses(self, alpha, seed, n):
        z = self.window(seed, n)
        level0 = float(np.mean(z[:52]))
        mine = _holt_run(z.tolist(), alpha, 0.0, level0, 0.0)  # SES: no trend
        assert _bits(mine[:2]) == _bits(_reference_ses_run(z, alpha, level0))

    @settings(max_examples=60, deadline=None)
    @given(alpha=params, beta=params, seed=st.integers(0, 2**32 - 1), n=st.integers(10, 160))
    def test_holt(self, alpha, beta, seed, n):
        z = self.window(seed, n)
        level0, trend0 = float(np.mean(z[:10])), float((z[-1] - z[0]) / (n - 1))
        assert (_bits(_holt_run(z.tolist(), alpha, beta, level0, trend0))
                == _bits(_reference_holt_run(z, alpha, beta, level0, trend0)))

    @settings(max_examples=60, deadline=None)
    @given(alpha=params, beta=params, gamma=params, seed=st.integers(0, 2**32 - 1),
           n=st.integers(104, 160))
    def test_hw(self, alpha, beta, gamma, seed, n):
        z = self.window(seed, n)
        level0 = float(np.mean(z[:52]))
        trend0 = float((np.mean(z[52:104]) - np.mean(z[:52])) / 52)
        seasonal0 = z[:52] - np.mean(z[:52])
        mine = _hw_run(z.tolist(), alpha, beta, gamma, level0, trend0, seasonal0.tolist())
        reference = _reference_hw_run(z, alpha, beta, gamma, level0, trend0, seasonal0)
        assert _bits(mine[:3]) == _bits(reference[:3])
        assert np.array(mine[3]).tobytes() == reference[3].tobytes()


class TestFourierTrend:
    def test_constant(self):
        out = predict_fourier_trend(np.full(105, 9.25), 52)
        assert out == pytest.approx(np.full(52, 9.25), abs=1e-6)

    def test_line_plus_sinusoid(self):
        t = np.arange(105, dtype=float)
        gen = lambda tt: 40 + 0.2 * tt + 6 * np.sin(2 * np.pi * tt / 52)  # noqa: E731
        out = predict_fourier_trend(gen(t), 52)
        expected = gen(105 + np.arange(52, dtype=float))
        assert np.max(np.abs(out - expected) / expected) < 0.02

    def test_slope_change_tracked(self):
        t = np.arange(105, dtype=float)
        y = np.where(t < 60, 30 + 0.1 * t, 30 + 0.1 * 60 + 0.45 * (t - 60))
        out = predict_fourier_trend(y, 52)
        slope = (out[-1] - out[0]) / 51
        assert abs(slope - 0.45) / 0.45 < 0.25


class TestStlComposites:
    STL_MODELS = (ModelId.STL_DRIFT, ModelId.STL_ES, ModelId.STL_HOLT, ModelId.STL_ARIMA)

    def test_constant(self):
        const = np.full(105, 21.0)
        for model in self.STL_MODELS:
            out = fit_predict(model, TrainingWindow(const)).values
            assert out == pytest.approx(np.full(52, 21.0), abs=1e-6), model

    def test_sinusoid_continuation(self):
        amp = 8.0
        t = np.arange(105)
        y = 30 + amp * np.sin(2 * np.pi * t / 52)
        expected = 30 + amp * np.sin(2 * np.pi * (105 + np.arange(52)) / 52)
        for model in self.STL_MODELS:
            out = fit_predict(model, TrainingWindow(y)).values
            assert np.max(np.abs(out - expected)) <= 0.05 * amp, model

    def test_stl_drift_line_plus_sinusoid(self):
        t = np.arange(105, dtype=float)
        gen = lambda tt: 40 + 0.2 * tt + 6 * np.sin(2 * np.pi * tt / 52)  # noqa: E731
        out = fit_predict(ModelId.STL_DRIFT, TrainingWindow(gen(t))).values
        expected = gen(105 + np.arange(52, dtype=float))
        assert np.max(np.abs(out - expected) / expected) < 0.05

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            fit_predict(ModelId.STL_ES, TrainingWindow(np.ones(103)))


class TestStandardize:
    def test_sd_is_numpy_std_when_its_squares_are_finite(self, rng):
        for scale in (1e-100, 1.0, 1e150):
            y = rng.uniform(5, 50, 105) * scale
            z, mu, sd = standardize(y)
            assert (mu, sd) == (float(np.mean(y)), float(np.std(y)))
            assert np.array_equal(z, (y - mu) / sd)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_sd_of_huge_window_scales_before_squaring(self, rng, scale):
        y = rng.uniform(5, 50, 105)
        z, mu, sd = standardize(y * scale)
        assert sd == pytest.approx(float(np.std(y)) * scale, rel=1e-14)
        assert np.std(z) == pytest.approx(1.0, rel=1e-14)

    def test_constant_window_keeps_unit_sd(self):
        assert standardize(np.full(105, 7.0))[1:] == (7.0, 1.0)


class TestForecastContainer:
    def test_clamps_negative_values(self):
        block = ForecastBlock("s", ["Drift", "Naive"], [np.linspace(-5, 5, 52), np.ones(52)])
        assert block.values.min() == 0.0
        assert block.values.max() == 5.0

    def test_wrong_length_rejected(self):
        # values must be a (producers x horizon) matrix
        with pytest.raises(DataError, match="51"):
            ForecastBlock("s", ["Naive"], np.ones(51))
        with pytest.raises(DataError, match="2 producers"):
            ForecastBlock("s", ["Naive", "SNaive"], np.ones((1, 51)))

    def test_nonfinite_rejected(self):
        values = np.ones((2, 52))
        values[1, 3] = np.nan
        with pytest.raises(DataError, match="s/SNaive: non-finite"):
            ForecastBlock("s", ["Naive", "SNaive"], values)

    def test_rows_in_requested_order(self):
        block = ForecastBlock("s", ["Naive", "SNaive", "HW"], np.arange(6.0).reshape(3, 2))
        assert block.rows(["HW", "Naive"]).tolist() == [[4.0, 5.0], [0.0, 1.0]]
        with pytest.raises(DataError, match="s: missing forecasts of SARIMA"):
            block.rows(["HW", "SARIMA"])


class TestModelProperties:
    def _noisy_train(self):
        rng = np.random.default_rng(7)
        t = np.arange(105, dtype=float)
        return 40 + 0.1 * t + 7 * np.sin(2 * np.pi * t / 52) + rng.normal(0, 1.5, 105)

    def test_every_forecast_has_52_nonnegative_values(self):
        y = np.abs(self._noisy_train())
        for model in PUBLIC_MODELS:
            values = fit_predict(model, TrainingWindow(y)).values
            block = ForecastBlock("s:UNB:220", [model.value], values[None])
            assert block.values.shape == (1, 52)
            assert np.all(block.values >= 0.0)

    def test_determinism_bit_identical(self):
        y = self._noisy_train()
        for model in PUBLIC_MODELS:
            a = fit_predict(model, TrainingWindow(y)).values
            b = fit_predict(model, TrainingWindow(y)).values
            assert np.array_equal(a, b), model

    def test_shift_equivariance(self):
        y = self._noisy_train()
        shift = 13.7
        for model in PUBLIC_MODELS:
            base = fit_predict(model, TrainingWindow(y)).values
            shifted = fit_predict(model, TrainingWindow(y + shift)).values
            rel = np.max(np.abs(shifted - (base + shift)) / np.maximum(np.abs(base + shift), 1e-9))
            assert rel < 1e-6, (model, rel)

    def test_scale_equivariance(self):
        y = self._noisy_train()
        scale = 2.9
        for model in PUBLIC_MODELS:
            base = fit_predict(model, TrainingWindow(y)).values
            scaled = fit_predict(model, TrainingWindow(y * scale)).values
            rel = np.max(np.abs(scaled - base * scale) / np.maximum(np.abs(base * scale), 1e-9))
            assert rel < 1e-6, (model, rel)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_window_gives_finite_scaled_forecasts(self, scale):
        # squares of values past ~1e154 overflow; pytest turns numpy's
        # RuntimeWarning into an error, so none may be raised on the way
        y = self._noisy_train()
        for model in PUBLIC_MODELS:
            base = fit_predict(model, TrainingWindow(y)).values
            huge = fit_predict(model, TrainingWindow(y * scale)).values
            assert np.isfinite(huge).all(), model
            rel = np.max(np.abs(huge - base * scale) / np.abs(base * scale))
            assert rel < 1e-6, (model, rel)

    def test_snaive_exact_shift(self):
        y = self._noisy_train()
        base = fit_predict(ModelId.SNAIVE, TrainingWindow(y)).values
        shifted = fit_predict(ModelId.SNAIVE, TrainingWindow(y + 5.0)).values
        assert np.array_equal(shifted, base + 5.0)

    def test_snaive_idempotent_with_prefix(self):
        # any train ending in two identical cycles forecasts that cycle exactly
        rng = np.random.default_rng(11)
        for prefix_len in (0, 1, 17):
            cycle = rng.uniform(5, 50, 52)
            train = np.concatenate([rng.uniform(5, 50, prefix_len), np.tile(cycle, 2)])
            out = fit_predict(ModelId.SNAIVE, TrainingWindow(train)).values
            assert np.array_equal(out, cycle)
