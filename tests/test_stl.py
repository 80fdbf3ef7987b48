from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqforecast.errors import DataError
from pqforecast.numerics import stl, stl_decompose

from conftest import reference_loess_window


def _lstsq_loess(x, y, q, eval_points, weights=None):
    return reference_loess_window(x, y, q, 1, eval_points, weights)


def test_reconstruction_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(105, 200))
        t = np.arange(n)
        y = (rng.uniform(10, 60) + rng.uniform(-0.1, 0.1) * t
             + rng.uniform(0, 10) * np.sin(2 * np.pi * t / 52 + rng.uniform(0, 6))
             + rng.normal(0, rng.uniform(0.1, 2.0), n))
        d = stl_decompose(y, 52)
        assert d.trend + d.seasonal + d.remainder == pytest.approx(y, abs=1e-9)


def test_pure_sine_recovers_components():
    n, period, amp = 156, 52, 5.0
    t = np.arange(n)
    sine = amp * np.sin(2 * np.pi * t / period)
    d = stl_decompose(sine + 10.0, period)
    assert np.max(np.abs(d.trend - 10.0)) <= 0.05 * amp
    assert np.max(np.abs(d.seasonal - sine)) <= 0.05 * amp


def test_constant_series():
    d = stl_decompose(np.full(120, 4.2), 52)
    assert np.max(np.abs(d.seasonal)) < 1e-9
    assert np.max(np.abs(d.remainder)) < 1e-9
    assert d.trend == pytest.approx(np.full(120, 4.2), abs=1e-9)


def test_linear_ramp_has_tiny_seasonal():
    ramp = np.linspace(0.0, 100.0, 160)
    d = stl_decompose(ramp, 52)
    assert np.max(np.abs(d.seasonal)) <= 1.0  # 1 % of the 0..100 range


def test_seasonal_component_centered_per_cycle():
    rng = np.random.default_rng(9)
    t = np.arange(156)
    y = 20 + 7 * np.sin(2 * np.pi * t / 52) + rng.normal(0, 1, 156)
    d = stl_decompose(y, 52)
    for c in range(3):
        assert abs(np.mean(d.seasonal[c * 52 : (c + 1) * 52])) <= 1e-6


def test_short_series_rejected():
    with pytest.raises(DataError):
        stl_decompose(np.ones(103), 52)


def test_robustness_downweights_outliers(monkeypatch):
    t = np.arange(156)
    clean = 30 + 6 * np.sin(2 * np.pi * t / 52)
    dirty = clean.copy()
    dirty[40] += 60.0  # one massive spike
    clean_seasonal = stl_decompose(clean, 52).seasonal
    errors = {}
    for passes in (2, 0):
        monkeypatch.setattr(stl, "ROBUSTNESS_ITERATIONS", passes)
        errors[passes] = np.max(np.abs(stl_decompose(dirty, 52).seasonal - clean_seasonal))
    assert errors[2] < errors[0]


def test_seasonally_adjusted_accessor():
    t = np.arange(156)
    y = 20 + 7 * np.sin(2 * np.pi * t / 52)
    d = stl_decompose(y, 52)
    assert d.seasonally_adjusted() == pytest.approx(y - d.seasonal, abs=1e-12)


def _assert_matches_lstsq_oracle(y):
    new = stl_decompose(y, 52)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stl, "loess_window", _lstsq_loess)
        old = stl_decompose(y, 52)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(y))))
    for part in ("trend", "seasonal", "remainder"):
        assert np.max(np.abs(getattr(new, part) - getattr(old, part))) <= tol, part


def _weekly_window(rng, n):
    t = np.arange(n)
    y = rng.uniform(0.1, 1e3) * (1 + rng.uniform(0, 0.4) * np.sin(2 * np.pi * t / 52 + rng.uniform(0, 6))
                                 + rng.uniform(-0.005, 0.005) * t + rng.normal(0, rng.uniform(0.01, 0.5), n))
    y[rng.integers(0, n)] += rng.uniform(0, 50) * y.std()  # an outlier for the robustness pass
    return y


@pytest.mark.parametrize("robustness", [1, 0])
def test_decomposition_matches_lstsq_oracle(monkeypatch, robustness):
    # every STL loess has q < n: q >= n is covered by the kernel's own oracle test
    monkeypatch.setattr(stl, "ROBUSTNESS_ITERATIONS", robustness)
    rng = np.random.default_rng(17)
    for n in (104, 105, 131, 157, 208, 260):
        _assert_matches_lstsq_oracle(_weekly_window(rng, n))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(104, 260))
def test_hypothesis_decomposition_matches_lstsq_oracle(seed, n):
    _assert_matches_lstsq_oracle(_weekly_window(np.random.default_rng(seed), n))


def test_loess_calls_keep_the_benchmark_wrap_contract(monkeypatch):
    """The benchmark wraps ``numerics.stl.loess_window`` and reads the
    evaluation points as ``args[4]`` or ``kwargs["eval_points"]``."""
    kernel = stl.loess_window
    points = []

    def counting(*args, **kwargs):
        points.append(len(args[4] if len(args) > 4 else kwargs["eval_points"]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(stl, "loess_window", counting)
    stl_decompose(np.random.default_rng(1).normal(10.0, 1.0, 105), 52)
    assert points == [105] * 8
