from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqforecast.errors import DataError
from pqforecast.numerics import (
    aicc,
    difference,
    gaussian_loglik,
    integrate_forecast,
    least_squares,
    loess_window,
)

from conftest import reference_loess_window


class TestLoess:
    def test_reproduces_line_any_span(self):
        x = np.arange(1.0, 31.0)
        y = 2.5 * x - 4.0
        for q in (9, 18, 30):  # spans 0.3, 0.6 and 1.0 of the 30 points
            out = loess_window(x, y, q, x)
            assert out == pytest.approx(y, abs=1e-9)

    def test_constant_input(self):
        x = np.arange(10.0)
        out = loess_window(x, np.full(10, 3.3), 5, x)
        assert out == pytest.approx(np.full(10, 3.3), abs=1e-12)

    def test_eval_off_grid(self):
        x = np.arange(0.0, 20.0)
        y = 1.5 * x + 2.0
        out = loess_window(x, y, 20, np.array([4.5, 17.25]))
        assert out == pytest.approx([1.5 * 4.5 + 2, 1.5 * 17.25 + 2], abs=1e-9)

    def test_rejects_bad_inputs(self):
        x = np.arange(5.0)
        with pytest.raises(DataError):
            loess_window(x, np.ones(4), 3, x)  # length mismatch
        with pytest.raises(DataError):
            loess_window(x, np.ones(5), 1, x)  # window too small for a line
        with pytest.raises(DataError):
            loess_window(x, np.ones(5), 2, np.array([0.5]))  # both window points at the bandwidth

    def test_rejects_window_wider_than_data(self):
        x = np.arange(30.0)
        assert loess_window(x, 2.0 * x, 30, x) == pytest.approx(2.0 * x, abs=1e-9)
        for q in (31, 45, 60):
            with pytest.raises(DataError, match="need 2 <= q <= n"):
                loess_window(x, 2.0 * x, q, x)

    def test_singular_window_gives_weighted_mean(self):
        # q = 3 on the integer grid: tricube weights only the centre point
        x = np.arange(12.0)
        y = np.random.default_rng(3).normal(size=12)
        out = loess_window(x, y, 3, x)
        assert out[1:-1] == pytest.approx(y[1:-1], abs=1e-12)
        assert out == pytest.approx(reference_loess_window(x, y, 3, 1, x), abs=1e-12)
        # robustness weights that leave one point off the centre: the
        # determinant is then rounding noise, not a line fit
        for j in (6, 7, 8):
            for rho in (0.3, 0.7, 0.9):
                weights = np.zeros(12)
                weights[j] = rho
                out = loess_window(x, y, 9, np.array([5.0]), weights=weights)
                assert out == pytest.approx([y[j]], abs=1e-12)

    @staticmethod
    def _assert_matches_lstsq_oracle(seed, n, robust, q):
        rng = np.random.default_rng(seed)
        x = np.arange(float(n))
        y = rng.uniform(1, 1e3) * (1 + 0.3 * np.sin(2 * np.pi * x / 52) + rng.normal(0, 0.2, n))
        weights = rng.uniform(0, 1, n) ** 2 if robust else None
        expected = reference_loess_window(x, y, q, 1, x, weights)
        out = loess_window(x, y, q, x, weights=weights)
        assert np.max(np.abs(out - expected)) <= 1e-10 * max(1.0, np.max(np.abs(y)))

    @pytest.mark.parametrize("robust", [False, True])
    @pytest.mark.parametrize("n", [104, 157, 260])
    def test_matches_lstsq_oracle(self, n, robust):
        for q in (2, 3, 53, 79, n - 1, n):
            self._assert_matches_lstsq_oracle(n + q, n, robust, q)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(104, 260), st.booleans(), st.floats(0.0, 1.0))
    def test_hypothesis_matches_lstsq_oracle(self, seed, n, robust, span):
        self._assert_matches_lstsq_oracle(seed, n, robust, max(2, int(span * n)))  # q < n and q == n


class TestLeastSquares:
    def test_identity_design(self):
        y = np.array([3.0, -1.0, 2.0])
        assert least_squares(np.eye(3), y, np.zeros(3)) == pytest.approx(y, abs=1e-12)

    def test_exact_line_recovery(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x])
        beta = least_squares(X, 2.0 * x + 1.0, np.zeros(2))
        assert beta == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_ridge_matches_normal_equations(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        beta = least_squares(X, y, ridge=np.full(3, 0.1))
        oracle = np.linalg.solve(X.T @ X + 0.1 * np.eye(3), X.T @ y)
        assert beta == pytest.approx(oracle, abs=1e-8)

    def test_per_column_ridge(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        ridge = np.array([0.0, 2.0, 0.5])
        beta = least_squares(X, y, ridge=ridge)
        oracle = np.linalg.solve(X.T @ X + np.diag(ridge), X.T @ y)
        assert beta == pytest.approx(oracle, abs=1e-8)

    def test_singular_system_errors(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(DataError, match="singular"):
            least_squares(X, np.ones(5), ridge=np.zeros(2))

    def test_ridge_regularizes_singular_system(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        beta = least_squares(X, np.ones(5), ridge=np.full(2, 1e-6))
        assert np.isfinite(beta).all()


class TestDifference:
    def test_first_difference(self):
        assert difference(np.array([1.0, 2, 3, 4]), 1).tolist() == [1.0, 1.0, 1.0]

    def test_seasonal_roundtrip(self, rng):
        y = rng.normal(size=200)
        # integrating the seasonal differences onto the first 100 values
        # rebuilds the rest of the series
        back = integrate_forecast(y[:100], difference(y, 52)[48:], 52)
        assert back == pytest.approx(y[100:], abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=3),
        st.lists(st.floats(-1e3, 1e3), min_size=30, max_size=80),
    )
    def test_roundtrip_property(self, lag, times, values):
        y = np.asarray(values)
        if len(y) <= lag * times:
            return
        stages = [y]
        for _ in range(times):
            stages.append(difference(stages[-1], lag))
        k = len(stages[-1])
        # undo the stages innermost first, as the SARIMA forecast does
        back = stages[-1]
        for history in reversed(stages[:-1]):
            back = integrate_forecast(history[:-k], back, lag)
        assert back == pytest.approx(y[-k:], abs=1e-8)

    def test_insufficient_length(self):
        with pytest.raises(DataError):
            difference(np.ones(5), 5)

    def test_integrate_forecast_matches_recursion(self, rng):
        y = rng.normal(size=60).cumsum()
        d = difference(y, 1)
        # integrating the tail of the diffs reproduces the tail of the series
        rebuilt = integrate_forecast(y[:40], d[39:], 1)
        assert rebuilt == pytest.approx(y[40:], abs=1e-10)


class TestAicc:
    def test_formula_value(self):
        # k = 1 (variance only), n = 100 -> 2 + 4/98
        assert aicc(0.0, 0, 100) == pytest.approx(2.0 + 4.0 / 98.0, rel=1e-12)

    def test_too_few_observations(self):
        assert aicc(0.0, 5, 6) == math.inf
        assert aicc(0.0, 5, 7) == math.inf  # correction denominator hits zero

    def test_useless_parameter_increases_aicc(self):
        for n in (30, 100, 500):
            values = [aicc(-123.4, k, n) for k in range(0, 6)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_gaussian_loglik_profile(self):
        # matches -n/2 (log(2 pi sse/n) + 1) computed independently
        sse, n = 37.5, 80
        want = -0.5 * n * (math.log(2 * math.pi * sse / n) + 1)
        assert gaussian_loglik(sse, n) == pytest.approx(want, rel=1e-12)

    def test_perfect_fit_is_finite(self):
        assert math.isfinite(gaussian_loglik(0.0, 50))
