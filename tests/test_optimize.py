from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqforecast.errors import ConfigError
from pqforecast.numerics import nelder_mead
from pqforecast.numerics.optimize import _mean, _ordered, _sup_distance


def test_quadratic_bowl():
    result = nelder_mead(lambda v: (v[0] - 3.0) ** 2, [0.0], [(-10.0, 10.0)])
    assert result.converged
    assert result.argmin[0] == pytest.approx(3.0, abs=1e-4)


def test_rosenbrock():
    rosen = lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2  # noqa: E731
    result = nelder_mead(rosen, [-1.0, 1.0], [(-5.0, 5.0)] * 2, tol=1e-10, max_iter=3000)
    assert result.argmin == pytest.approx([1.0, 1.0], abs=1e-3)


def test_constant_objective_converges_at_start():
    result = nelder_mead(lambda v: 7.0, [1.0, 2.0], [(-10.0, 10.0)] * 2)
    assert result.converged
    assert result.iterations == 0
    assert result.argmin.tolist() == [1.0, 2.0]
    assert result.objective_value == 7.0


def test_no_coordinates_is_converged_at_the_start_value():
    """An empty start point is the minimum after 0 iterations, the
    objective's value there; given as ``f_start``, no call at all."""
    calls = []

    def objective(v):
        calls.append(v)
        return 4.0

    result = nelder_mead(objective, [], [])
    assert result.argmin.dtype == np.float64 and result.argmin.shape == (0,)
    assert result.converged and result.iterations == 0 and result.objective_value == 4.0
    assert len(calls) == 1
    calls.clear()
    result = nelder_mead(objective, [], [], f_start=2.5)
    assert calls == []
    assert result.argmin.dtype == np.float64 and result.argmin.shape == (0,)
    assert result.converged and result.iterations == 0 and result.objective_value == 2.5


def test_max_iter_returns_unconverged_result():
    rosen = lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2  # noqa: E731
    result = nelder_mead(rosen, [-1.0, 1.0], [(-5.0, 5.0)] * 2, tol=1e-14, max_iter=5)
    assert not result.converged
    assert np.isfinite(result.objective_value)


def test_objective_value_matches_argmin():
    obj = lambda v: float(np.sum(v**2)) + 1.0  # noqa: E731
    result = nelder_mead(obj, [2.0, -1.5], [(-4.0, 4.0)] * 2)
    assert result.objective_value == pytest.approx(obj(result.argmin), rel=1e-12)


def test_bounds_respected_during_search():
    lo, hi = 0.5, 2.0
    seen = []

    def objective(v):
        seen.append(v.copy())
        return (v[0] - 5.0) ** 2  # minimum outside the box

    result = nelder_mead(objective, [1.0], [(lo, hi)], max_iter=200)
    assert all(lo - 1e-12 <= v[0] <= hi + 1e-12 for v in seen)
    assert result.argmin[0] == pytest.approx(hi, abs=1e-3)


def test_empty_box_errors():
    with pytest.raises(ConfigError):
        nelder_mead(lambda v: 0.0, [0.0], [(1.0, -1.0)])


def test_nonfinite_start_errors():
    with pytest.raises(ConfigError):
        nelder_mead(lambda v: float("nan"), [0.0], [(-1.0, 1.0)])


def test_deterministic():
    obj = lambda v: np.sin(3 * v[0]) + v[0] ** 2 + 0.3 * v[1] ** 2  # noqa: E731
    a = nelder_mead(obj, [1.0, -2.0], [(-5.0, 5.0)] * 2)
    b = nelder_mead(obj, [1.0, -2.0], [(-5.0, 5.0)] * 2)
    assert np.array_equal(a.argmin, b.argmin)
    assert a.iterations == b.iterations


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(0.1, 5.0), st.floats(-2.0, 2.0),
)
def test_never_worse_than_start(x0, x1, curve, center):
    obj = lambda v: curve * float(np.sum((v - center) ** 2)) + np.sin(v[0])  # noqa: E731
    start = np.array([x0, x1])
    result = nelder_mead(obj, start, [(-6.0, 6.0)] * 2, max_iter=60)
    assert result.objective_value <= obj(start) + 1e-12


# -- oracle: the array-based optimizer the float-list one replaced -------------

def _reference_fold_into_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    x = x.copy()
    span = hi - lo
    for i in range(len(x)):
        if span[i] <= 0:
            x[i] = lo[i]
            continue
        if x[i] < lo[i] or x[i] > hi[i]:
            period = 2.0 * span[i]
            offset = (x[i] - lo[i]) % period
            x[i] = lo[i] + (offset if offset <= span[i] else period - offset)
    return x


def _reference_nelder_mead(objective, x0, bounds, tol=1e-8, max_iter=500):
    x0 = np.asarray(x0, dtype=float)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if len(lo) != len(x0):
        raise ConfigError("nelder_mead: bounds length must match x0")
    if np.any(lo > hi):
        raise ConfigError("nelder_mead: empty box")

    n = len(x0)
    x0 = _reference_fold_into_box(x0, lo, hi)
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise ConfigError("nelder_mead: objective not finite at start point")

    simplex = [x0]
    for i in range(n):
        step = 0.05 * abs(x0[i]) if x0[i] != 0 else 0.05
        vertex = x0.copy()
        vertex[i] += step
        simplex.append(_reference_fold_into_box(vertex, lo, hi))
    values = [f0] + [float(objective(v)) for v in simplex[1:]]

    def sort_simplex() -> None:
        order = np.argsort(values, kind="stable")
        simplex[:] = [simplex[i] for i in order]
        values[:] = [values[i] for i in order]

    sort_simplex()
    iterations = 0
    converged = False
    while iterations < max_iter:
        diameter = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:]) if n else 0.0
        spread = values[-1] - values[0]
        if diameter < tol:
            converged = True
            break
        if spread < tol:
            probe = float(objective(_reference_fold_into_box(np.mean(simplex, axis=0), lo, hi)))
            if abs(probe - values[0]) < tol:
                converged = True
                break
        iterations += 1

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = _reference_fold_into_box(centroid + 1.0 * (centroid - worst), lo, hi)
        f_reflected = float(objective(reflected))
        if values[0] <= f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[0]:
            expanded = _reference_fold_into_box(centroid + 2.0 * (centroid - worst), lo, hi)
            f_expanded = float(objective(expanded))
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        else:
            contracted = _reference_fold_into_box(centroid + 0.5 * (worst - centroid), lo, hi)
            f_contracted = float(objective(contracted))
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = _reference_fold_into_box(best + 0.5 * (simplex[i] - best), lo, hi)
                    values[i] = float(objective(simplex[i]))
        sort_simplex()

    sort_simplex()
    return simplex[0].copy(), values[0], iterations, converged


@st.composite
def problems(draw, dims=st.integers(1, 5)):
    """A box, a start point and an objective family with its parameters."""
    n = draw(dims)
    coords = st.floats(-5.0, 5.0, allow_nan=False)
    lo = [draw(coords) for _ in range(n)]
    widths = [draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0, 10.0])) for _ in range(n)]  # 0: lo == hi
    bounds = [(a, a + w) for a, w in zip(lo, widths)]
    x0 = [draw(st.one_of(st.just(0.0), st.just(-0.0), coords)) for _ in range(n)]
    centers = np.array([draw(st.floats(-20.0, 20.0)) for _ in range(n)])  # often outside the box
    weights = np.array([draw(st.floats(0.01, 50.0)) for _ in range(n)])
    kind = draw(st.sampled_from(["bowl", "abs", "nan", "inf", "plateau", "wavy"]))
    # a NaN or +inf region boundary, often just past the start point so that
    # initial vertices land in it
    cut = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(0.0, 0.3).map(lambda d: x0[0] + d)))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.5]))
    max_iter = draw(st.integers(0, 300))

    def objective(x):
        bowl = float(np.sum(weights * (x - centers) ** 2))
        if kind == "abs":
            return float(np.sum(weights * np.abs(x - centers)))
        if kind == "nan" and x[0] > cut:
            return float("nan")
        if kind == "inf" and x[0] > cut:
            return float("inf")
        if kind == "plateau":
            return max(bowl, abs(cut))  # flat floor: ties and the probe path
        if kind == "wavy":
            return bowl + float(np.sin(5.0 * x[0]))
        return bowl

    return objective, x0, bounds, tol, max_iter


def _run_recorded(optimizer, objective, x0, bounds, tol, max_iter):
    seen = []

    def recorded(x):
        seen.append(x.tobytes())
        return objective(x)

    try:
        result = optimizer(recorded, x0, bounds, tol=tol, max_iter=max_iter)
    except ConfigError as exc:
        return ("error", str(exc), seen)
    if isinstance(result, tuple):
        argmin, value, iterations, converged = result
    else:
        argmin, value = result.argmin, result.objective_value
        iterations, converged = result.iterations, result.converged
    return (argmin.dtype, argmin.tobytes(), np.float64(value).tobytes(), iterations, converged, seen)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_matches_reference_optimizer(problem):
    objective, x0, bounds, tol, max_iter = problem
    mine = _run_recorded(nelder_mead, objective, x0, bounds, tol, max_iter)
    reference = _run_recorded(_reference_nelder_mead, objective, x0, bounds, tol, max_iter)
    assert mine == reference


@settings(max_examples=20, deadline=None)
@given(problems(dims=st.integers(6, 8)))
def test_matches_reference_optimizer_beyond_five_dimensions(problem):
    objective, x0, bounds, tol, max_iter = problem
    mine = _run_recorded(nelder_mead, objective, x0, bounds, tol, max_iter)
    assert mine == _run_recorded(_reference_nelder_mead, objective, x0, bounds, tol, max_iter)


@settings(max_examples=200, deadline=None)
@given(problems())
def test_start_value_from_caller_saves_one_evaluation(problem):
    objective, x0, bounds, tol, max_iter = problem
    *reference, seen = _run_recorded(_reference_nelder_mead, objective, x0, bounds, tol, max_iter)
    f_start = objective(np.asarray(x0, dtype=float))
    *mine, mine_seen = _run_recorded(partial(nelder_mead, f_start=f_start), objective, x0, bounds,
                                     tol, max_iter)
    inside = all(lo <= v <= hi for v, (lo, hi) in zip(x0, bounds))
    assert mine == reference
    assert mine_seen == (seen[1:] if inside else seen)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e16, -1e16, 3.3, np.inf, -np.inf, np.nan]),
                         min_size=3, max_size=3), min_size=1, max_size=6))
def test_float_helpers_match_numpy(rows):
    def same(a, b):
        return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

    with np.errstate(all="ignore"):
        assert same(_mean(rows), np.mean(np.array(rows), axis=0))
        for row in rows:
            assert same(_sup_distance(row, rows[0]), np.max(np.abs(np.array(row) - np.array(rows[0]))))
        values = [row[0] for row in rows]
        assert _ordered(values) == np.argsort(values, kind="stable").tolist()
