from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from pqforecast.models import ModelId, fit_predict, sarima
from pqforecast.models.base import standardize
from pqforecast.models.baselines import predict_snaive
from pqforecast.models.sarima import (
    SarimaOrder,
    _candidate_orders,
    _expand,
    _ma_invert,
    _min_root_modulus,
    choose_differencing,
    css_residuals,
    fit_css,
    forecast_fit,
    predict_arima,
    seasonal_strength,
    select_order,
)
from pqforecast.models.stl_models import TrainingWindow
from pqforecast.numerics import nelder_mead, stl_decompose
from pqforecast.synth import SyntheticSpec, generate_corpus


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

    def test_rejects_more_than_two_coefficients(self):
        for coeffs in ([0.1, 0.2, 0.3], [0.0, 0.0, 0.5], [0.1, 0.2, 0.3, 0.4]):
            for sign in (-1.0, 1.0):
                with pytest.raises(ValueError, match="at most 2"):
                    _min_root_modulus(coeffs, sign)
        assert _min_root_modulus([0.5, 0.0, 0.0], -1.0) == 2.0  # trailing zeros: degree 1

    def test_search_builds_no_factor_over_two_coefficients(self):
        # each factor of a lag polynomial the order search builds holds p, q,
        # P or Q coefficients, so the root check stays in closed form
        assert sarima.MAX_P <= 2 and sarima.MAX_Q <= 2
        assert sarima.MAX_SEASONAL_P <= 1 and sarima.MAX_SEASONAL_Q <= 1
        orders = [o for seasonal in (False, True) for o in _candidate_orders(seasonal, 0, 0)]
        assert max(max(o.p, o.q, o.P, o.Q) for o in orders) <= 2


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
        # m = 1 is STL-ARIMA's; lengths up to 200 run the warm-up over the
        # steps before the highest lag (up to 54) and the loop after it
        for m in (1, 52):
            rng = np.random.default_rng(100 + 10 * q + Q + m)
            for _ in range(40):
                theta = self._invertible(rng, q)
                Theta = rng.uniform(-0.99, 0.99, size=Q)
                ma_poly = _expand(theta, Theta, m, +1.0)
                x = rng.normal(size=int(rng.integers(1, 201))) * 10.0 ** rng.uniform(-3, 3)
                assert np.array_equal(_ma_invert(ma_poly, x), lfilter([1.0], ma_poly, x))

    @pytest.mark.parametrize("lags", [(), (1,), (2,), (3,), (1, 2, 3), (8,), (9, 3), (52, 2), (53, 52, 1)])
    def test_other_tap_sets_match_lfilter(self, lags):
        rng = np.random.default_rng(sum(lags) + len(lags))
        for n in (0, 1, 2, 7, 8, 9, 60, 200):
            ma_poly = np.zeros(max(lags, default=1) + 1)
            ma_poly[0] = 1.0
            ma_poly[list(lags)] = rng.uniform(-0.4, 0.4, size=len(lags))
            x = rng.normal(size=n)
            assert np.array_equal(_ma_invert(ma_poly, x), lfilter([1.0], ma_poly, x))


def _reference_expand(nonseasonal, seasonal, m, sign):
    k = len(nonseasonal)
    poly = np.zeros(k + m * len(seasonal) + 1)
    poly[0] = 1.0
    poly[1 : k + 1] = sign * nonseasonal
    for j, coeff in enumerate(seasonal, start=1):
        poly[j * m] += sign * coeff
        if k:
            poly[j * m + 1 : j * m + 1 + k] += coeff * nonseasonal
    return poly


def _reference_ma_invert(ma_poly, x):
    taps = [(j, float(ma_poly[j])) for j in range(len(ma_poly) - 1, 0, -1) if ma_poly[j] != 0.0]
    e = []
    for t, value in enumerate(x.tolist()):
        acc = 0.0
        for j, coeff in taps:
            if j <= t:
                acc -= coeff * e[t - j]
        e.append(acc + value)
    return np.array(e)


def _reference_css_residuals(w, order, params):
    """css_residuals before the float-list fast path: numpy slices and
    polynomials, and the plain per-tap MA loop."""
    p, q, P, Q = order.p, order.q, order.P, order.Q
    phi, theta = params[:p], params[p : p + q]
    Phi, Theta = params[p + q : p + q + P], params[p + q + P : p + q + P + Q]
    const = params[p + q + P + Q] if order.with_constant else 0.0
    ar_poly = _reference_expand(phi, Phi, order.m, -1.0)
    ma_poly = _reference_expand(theta, Theta, order.m, +1.0)
    ncond = order.conditioning
    rhs = np.convolve(w, ar_poly)[: len(w)] - const
    resid = np.zeros(len(w))
    if len(w) > ncond:
        if len(ma_poly) == 1:
            resid[ncond:] = rhs[ncond:]
        else:
            resid[ncond:] = _reference_ma_invert(ma_poly, rhs[ncond:])
    return resid


class TestCssResidualsReference:
    """Every grid order at m = 52 and m = 1, with a constant (d = D = 0) and
    without, against the pre-change arithmetic, bit for bit."""

    @pytest.mark.parametrize("seasonal,d,D", [
        (True, 0, 0), (True, 1, 0), (True, 0, 1), (True, 1, 1),
        (False, 0, 0), (False, 1, 0),
    ])
    def test_every_grid_order(self, seasonal, d, D):
        orders = _candidate_orders(seasonal, d, D)
        rng = np.random.default_rng(7 + 13 * orders[0].m + 3 * d + D)
        assert len(orders) == (31 if seasonal else 9)
        for order in orders:
            assert order.with_constant == (d + D == 0)
            for n in (max(order.conditioning, 1), order.conditioning + 1, 60, 105, 157):
                w = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
                params = rng.uniform(-2.0, 2.0, size=order.n_params)
                mine = css_residuals(w, order, params)
                assert mine.tobytes() == _reference_css_residuals(w, order, params).tobytes(), order.label()


class TestDifferencingHeuristic:
    def test_white_noise_needs_none(self, rng):
        y = rng.normal(10, 1, 105)
        assert choose_differencing(y, TrainingWindow(y).decomposition) == (0, 0)

    def test_random_walk_needs_ordinary(self, rng):
        y = rng.normal(0, 1, 105).cumsum() + 50
        d, D = choose_differencing(y, TrainingWindow(y).decomposition)
        assert d == 1 and D == 0

    def test_strong_seasonality_needs_seasonal(self):
        t = np.arange(105)
        y = 30 + 9 * np.sin(2 * np.pi * t / 52)
        d, D = choose_differencing(y, TrainingWindow(y).decomposition)
        assert D == 1

    def test_constant_series(self):
        y = np.full(105, 3.0)
        assert choose_differencing(y, TrainingWindow(y).decomposition) == (0, 0)

    @pytest.mark.parametrize("jitter", [0, 4])
    def test_flat_windows_have_no_seasonal_strength(self, jitter):
        # STL of a constant window leaves rounding residue whose variance
        # ratio used to read as a seasonal strength of 0.2-0.6
        rng = np.random.default_rng(jitter)
        eps = np.finfo(float).eps
        for level in (1e-3, 0.1, 0.5, 1.0, 3.0, 47.3, 1e3, 1e6):
            for n in (104, 117, 130, 157):
                y = np.full(n, level) + level * eps * rng.integers(-jitter, jitter + 1, n)
                window = TrainingWindow(y)
                assert seasonal_strength(window.decomposition()) == 0.0, (level, n)
                assert choose_differencing(y, window.decomposition)[1] == 0, (level, n)

    def test_faint_seasonality_keeps_its_strength(self):
        t = np.arange(130)
        y = 100.0 + 1e-6 * np.sin(2 * np.pi * t / 52)
        assert seasonal_strength(TrainingWindow(y).decomposition()) > 0.9


class TestSharedDecomposition:
    """SARIMA reads the STL split of the raw window; the oracle decomposes the
    standardized copy SARIMA fits on, as it did before the split was shared.
    The seasonal strength is affine-invariant, so (d, D) must agree."""

    @staticmethod
    def assert_same_differencing(y):
        z, _, _ = standardize(y)
        oracle = choose_differencing(z, lambda: stl_decompose(z, 52))
        assert choose_differencing(z, TrainingWindow(y).decomposition) == oracle

    def test_synthetic_corpus(self):
        corpus, _ = generate_corpus(SyntheticSpec(n_series=12, rng_seed=4401))
        for series in corpus:
            self.assert_same_differencing(series.values[:105])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(60, 160), level=st.floats(1.0, 200.0),
           amplitude=st.floats(0.0, 50.0), slope=st.floats(-0.5, 0.5),
           noise=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_generated_windows(self, n, level, amplitude, slope, noise, seed):
        t = np.arange(n)
        y = (level + slope * t + amplitude * np.sin(2 * np.pi * t / 52)
             + np.random.default_rng(seed).normal(0.0, noise, n))
        self.assert_same_differencing(y)

    def test_short_window_is_not_decomposed(self):
        def refuse():
            raise AssertionError("decomposed a window shorter than two cycles")

        assert choose_differencing(np.arange(103.0), refuse) == (1, 0)


class TestOrderSelection:
    def test_white_noise_selects_constant_model(self):
        y = np.random.default_rng(42).normal(10.0, 1.0, size=105)
        fit = select_order(y, TrainingWindow(y).decomposition)
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
        fit = select_order(y, TrainingWindow(y).decomposition)
        assert fit.order.D == 1
        fc = forecast_fit(y, fit, 52)
        assert fc == pytest.approx(predict_snaive(y, 52), abs=1e-6)

    def test_ar1_monte_carlo_recovery(self):
        estimates = []
        for rep in range(30):
            y = ar1_series(0.8, 105, seed=1000 + rep)
            fit = fit_css(y, SarimaOrder(1, 0, 0, m=52))
            estimates.append(fit.params[0])
        assert abs(np.mean(estimates) - 0.8) <= 0.15

    @pytest.mark.parametrize("d, D", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_dropped_seasonal_ma_orders_do_not_see_theta(self, d, D):
        """An order the seasonal-MA rule drops, and whose lag-52 tap reaches
        no residual, has a CSS objective that does not depend on Θ."""
        n = 105
        y = 30 + 9 * np.sin(2 * np.pi * np.arange(n) / 52) + np.random.default_rng(3).normal(0, 1, n)
        orders = _candidate_orders(True, d, D)
        old = [o for o in orders
               if n - o.diff_loss >= sarima.MIN_LEN_AFTER_DIFF and n - o.natural_start >= sarima._MIN_COMMON_OBS]
        t0_common = max(o.natural_start for o in old)
        dropped = [o for o in old if n - o.natural_start - o.m * o.Q < sarima._MIN_COMMON_OBS]
        blind = [o for o in dropped if n - o.natural_start <= o.m]
        assert dropped and blind
        for order in blind:
            w, _ = sarima._differenced(y, order)
            for eval_from in (order.conditioning, t0_common - order.diff_loss):
                objective = sarima._objective(w, order, eval_from)
                values = []
                for theta in (-0.9, -0.3, 0.0, 0.4, 0.9):
                    params = [0.1] * order.n_coeffs + ([float(np.mean(w))] if order.with_constant else [])
                    params[order.n_coeffs - 1] = theta  # Θ is the last coefficient
                    values.append(objective(np.array(params)))
                assert max(values) < sarima._PENALTY, order.label()
                assert len({np.float64(v).tobytes() for v in values}) == 1, order.label()

    def test_nothing_admissible_returns_none(self, monkeypatch):
        y = np.random.default_rng(0).normal(size=105)
        monkeypatch.setattr(sarima, "MIN_LEN_AFTER_DIFF", 200)
        assert select_order(y, TrainingWindow(y).decomposition) is None


def _search_windows() -> list[tuple[str, np.ndarray, object]]:
    """Standardized windows as the two ARIMA models search them: SARIMA's
    training window with its STL split, and STL-ARIMA's seasonally adjusted
    window without one; plus a seasonal window (D = 1) and a flat noisy one
    (D = 0) that SARIMA searches."""
    windows = []
    corpus, _ = generate_corpus(SyntheticSpec(n_series=10, rng_seed=2525))
    for series in corpus:
        window = TrainingWindow(series.values[:105])
        windows.append((f"{series.series_id}/SARIMA", standardize(window.values)[0], window.decomposition))
        adjusted = window.decomposition().seasonally_adjusted()
        windows.append((f"{series.series_id}/STL-ARIMA", standardize(adjusted)[0], None))
    rng = np.random.default_rng(7)
    t = np.arange(105)
    for label, y in (("seasonal", 30 + 9 * np.sin(2 * np.pi * t / 52) + rng.normal(0, 1, 105)),
                     ("flat", 30 + rng.normal(0, 1, 105))):
        windows.append((label, standardize(y)[0], TrainingWindow(y).decomposition))
    return windows


def _is_start(order: SarimaOrder, seasonal: bool) -> bool:
    """Whether ``order`` is one of Hyndman & Khandakar's start orders,
    (2,d,2)(1,D,1), (0,d,0)(0,D,0), (1,d,0)(1,D,0) and (0,d,1)(0,D,1), with
    no seasonal part in a non-seasonal search."""
    starts = {(2, 2, 1, 1), (0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)}
    if not seasonal:
        starts = {(p, q, 0, 0) for p, q, _, _ in starts}
    return (order.p, order.q, order.P, order.Q) in starts


class TestStepwiseSearch:
    """The stepwise search against the full grid it replaced, which stays
    here as the oracle: every admissible order fitted cold on the common
    window, simplest first, the first strictly lowest AICc winning."""

    @pytest.fixture(scope="class")
    def searches(self):
        """Per window: the selected fit, every fit_css call as (order,
        eval_from, x0, fit) in call order, the current best handed to each
        warm start, and the common window's differenced series and start."""
        out = []
        with pytest.MonkeyPatch.context() as mp:
            calls, sources = [], []

            def recording_fit(w, order, eval_from=None, max_iter=400, x0=None):
                fit = fit_css(w, order, eval_from, max_iter, x0)
                calls.append((order, eval_from, None if x0 is None else list(x0), fit))
                return fit

            warm_start = sarima._warm_start

            def recording_warm(best, order):
                sources.append(best)
                return warm_start(best, order)

            mp.setattr(sarima, "fit_css", recording_fit)
            mp.setattr(sarima, "_warm_start", recording_warm)
            for label, z, decompose in _search_windows():
                calls.clear()
                sources.clear()
                fit = select_order(z, decompose)
                admissible = sarima._admissible_orders(z, decompose)
                t0_common = max(o.natural_start for o in admissible)
                w, _ = sarima._differenced(z, admissible[0])
                out.append(dict(label=label, fit=fit, calls=list(calls), sources=list(sources),
                                admissible=admissible, t0_common=t0_common, w=w,
                                seasonal=decompose is not None))
        return out

    @staticmethod
    def cold(search, order):
        return fit_css(search["w"], order, eval_from=search["t0_common"] - order.diff_loss,
                       max_iter=60 + 40 * max(order.n_params, 1))

    @staticmethod
    def common(search):
        return [(order, x0, fit) for order, eval_from, x0, fit in search["calls"] if eval_from is not None]

    def test_fits_admissible_orders_at_most_once(self, searches):
        fitted = admissible = 0
        for search in searches:
            orders = [order for order, _, _ in self.common(search)]
            assert len(orders) == len(set(orders)), search["label"]
            assert set(orders) <= set(search["admissible"]), search["label"]
            assert search["fit"].order in orders
            fitted, admissible = fitted + len(orders), admissible + len(search["admissible"])
        assert fitted < admissible

    def test_start_orders_are_fitted_cold_and_first(self, searches):
        for search in searches:
            starts = [o for o in search["admissible"] if _is_start(o, search["seasonal"])]
            common = self.common(search)
            assert [order for order, _, _ in common[: len(starts)]] == starts, search["label"]
            for order, x0, fit in common[: len(starts)]:
                assert x0 is None
                assert np.float64(fit.aicc).tobytes() == np.float64(self.cold(search, order).aicc).tobytes()
            assert all(x0 is not None for _, x0, _ in common[len(starts):]), search["label"]
        # (2,d,2)(1,D,1) has 6 > MAX_ORDER coefficients, so a seasonal search never fits it
        assert all(order.n_coeffs <= sarima.MAX_ORDER for s in searches for order, _, _ in self.common(s))

    def test_never_loses_to_a_grid_winner_among_its_starts(self, searches):
        compared = 0
        for search in searches:
            grid = None
            for order in search["admissible"]:
                fit = self.cold(search, order)
                if fit.aicc < np.inf and (grid is None or fit.aicc < grid.aicc):
                    grid = fit
            if _is_start(grid.order, search["seasonal"]):
                chosen = {order: fit for order, _, fit in self.common(search)}[search["fit"].order]
                assert chosen.aicc <= grid.aicc, search["label"]
                compared += 1
        assert compared >= 5

    def test_neighbours_start_from_the_current_best(self, searches):
        """Each warm start is the best of everything fitted before it, and a
        neighbour that adds a coefficient without moving the conditioning
        point, or adds one to a best without an MA part, ends at an SSE no
        higher than the best's: the padded start gives the best's residuals
        on the common window, and Nelder-Mead never returns a point worse
        than its start. An AR lag added to a best with an MA part moves the
        point where the MA recursion starts from zero, so its warm start is
        not the best's SSE and is not checked here."""
        checked = 0
        for search in searches:
            common = self.common(search)
            warm = [i for i, (_, x0, _) in enumerate(common) if x0 is not None]
            assert len(warm) == len(search["sources"])
            for i, best in zip(warm, search["sources"]):
                order, _, fit = common[i]
                assert best.aicc == min(f.aicc for _, _, f in common[:i] if f.aicc < np.inf), search["label"]
                adds = order.n_coeffs > best.order.n_coeffs
                if adds and (order.conditioning == best.order.conditioning
                             or best.order.q + best.order.Q == 0):
                    assert fit.sse <= best.sse * (1 + 1e-12), (search["label"], order.label())
                    checked += 1
        assert checked >= 10

    def test_winner_refit_starts_from_its_common_window_argmin(self, searches):
        for search in searches:
            order, eval_from, x0, fit = search["calls"][-1]
            chosen = {o: f for o, _, f in self.common(search)}[order]
            assert eval_from is None and order == search["fit"].order
            assert x0 == chosen.params.tolist()
            assert fit is search["fit"]

    def test_warm_start_layout(self):
        fit = sarima.SarimaFit(SarimaOrder(2, 0, 1, 1, 0, 0, m=52), np.array([0.5, -0.2, 0.3, 0.4, 7.0]),
                               sse=1.0, n_obs=50, aicc=0.0)
        assert sarima._warm_start(fit, SarimaOrder(1, 0, 2, 0, 0, 1, m=52)) == [0.5, 0.3, 0.0, 0.0, 7.0]
        assert sarima._warm_start(fit, SarimaOrder(2, 0, 1, 1, 0, 0, m=52)) == fit.params.tolist()
        differenced = sarima.SarimaFit(SarimaOrder(1, 1, 0), np.array([0.5]), sse=1.0, n_obs=50, aicc=0.0)
        assert sarima._warm_start(differenced, SarimaOrder(0, 1, 1)) == [0.0]

    def test_start_outside_the_invertible_region_is_cold(self):
        y = ar1_series(0.6, 105, seed=21)
        order = SarimaOrder(2, 0, 1, m=52)
        cold = fit_css(y, order)
        for x0 in ([1.5, 0.0, 0.0, 20.0], [0.1, 0.1, 1.2, 20.0]):
            warm = fit_css(y, order, x0=x0)
            assert warm.params.tobytes() == cold.params.tobytes() and warm.sse == cold.sse


class TestFitCssStartPoint:
    @pytest.mark.parametrize("order", [SarimaOrder(1, 0, 0, m=52), SarimaOrder(1, 0, 1, 0, 0, 1, m=4),
                                       SarimaOrder(2, 1, 1)], ids=SarimaOrder.label)
    def test_start_point_is_evaluated_once(self, monkeypatch, order):
        """The optimizer takes the start value that scaled ``tol``: one
        objective call fewer than evaluating the start point twice, and the
        same fit to the byte."""
        y = ar1_series(0.6, 105, seed=21)
        make_objective = sarima._objective

        def fit_counted():
            calls = []

            def counted(*args):
                objective = make_objective(*args)
                return lambda params: calls.append(params.tobytes()) or objective(params)

            monkeypatch.setattr(sarima, "_objective", counted)
            fit = fit_css(np.diff(y) if order.d else y, order)
            return fit, calls

        fit, calls = fit_counted()
        # the start point evaluated twice: once for tol, once by the optimizer
        monkeypatch.setattr(sarima, "nelder_mead",
                            lambda *args, f_start=None, **kwargs: nelder_mead(*args, **kwargs))
        twice, twice_calls = fit_counted()
        assert twice_calls[0] == twice_calls[1] and calls[0] == twice_calls[0]
        assert calls == twice_calls[1:]
        assert len(calls) == len(twice_calls) - 1
        assert fit.params.tobytes() == twice.params.tobytes()
        assert (fit.sse, fit.aicc) == (twice.sse, twice.aicc)


class TestZeroCoefficientFit:
    @pytest.mark.parametrize("x0", [None, []])
    def test_random_walk_order_scores_the_differenced_window(self, x0):
        """(0,1,0) has no coefficient and no constant: the optimizer returns
        the empty start point, and the SSE is the window's own."""
        w = np.diff(ar1_series(0.6, 105, seed=21))
        fit = fit_css(w, SarimaOrder(0, 1, 0), x0=x0)
        assert fit.params.dtype == np.float64 and fit.params.shape == (0,)
        assert fit.sse == np.dot(w, w)
        assert fit.n_obs == len(w)


class TestPredictWrappers:
    def test_sarima_fallback_to_snaive(self, monkeypatch):
        y = np.abs(np.random.default_rng(3).normal(30, 3, 105))
        monkeypatch.setattr(sarima, "MIN_LEN_AFTER_DIFF", 200)
        fit = fit_predict(ModelId.SARIMA, TrainingWindow(y))
        assert fit.notes and "fallback" in fit.notes[0]
        assert np.array_equal(fit.values, predict_snaive(y, 52))

    def test_nonseasonal_wrapper(self):
        y = ar1_series(0.5, 105, seed=7)
        fc, fit = predict_arima(y, 52)
        assert fit is not None
        assert fit.order.P == 0 and fit.order.D == 0 and fit.order.Q == 0
        assert len(fc) == 52
        assert np.all(np.isfinite(fc))

    def test_seasonal_wrapper_horizon(self):
        t = np.arange(105)
        y = 30 + 6 * np.sin(2 * np.pi * t / 52) + np.random.default_rng(1).normal(0, 1, 105)
        fc, fit = predict_arima(y, 52, TrainingWindow(y).decomposition)
        assert fit is not None and fit.order.D == 1
        assert len(fc) == 52

    def test_drifting_series_forecast_tracks_level(self):
        # forecast from a differenced model must continue near the last level
        y = np.linspace(20, 60, 105) + np.random.default_rng(2).normal(0, 0.5, 105)
        fc, fit = predict_arima(y, 52, TrainingWindow(y).decomposition)
        assert fit.order.d == 1
        assert 50.0 < fc[0] < 70.0
