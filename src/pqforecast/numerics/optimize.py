"""Box-bounded Nelder-Mead simplex minimization.

Deterministic by construction: the initial simplex is the start point plus
a 5 % perturbation per coordinate, and proposals leaving the box are
reflected back inside. Good enough for the low-dimensional, cheap but
non-smooth objectives used by the model fits (smoothing SSE, ARMA CSS).

The simplex is kept as lists of Python floats: with one to five
coordinates, numpy's per-call overhead would cost more than the
arithmetic. Every operation is the scalar one numpy would perform, in the
same order, so results do not depend on this choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError

_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5

Point = list[float]


@dataclass
class OptimizerResult:
    argmin: np.ndarray
    objective_value: float
    iterations: int
    converged: bool


def _fold_into_box(x: Point, lo: Point, hi: Point) -> Point:
    """Reflect coordinates back into [lo, hi] (triangular fold)."""
    out = []
    for v, a, b in zip(x, lo, hi):
        span = b - a
        if span <= 0:
            v = a
        elif v < a or v > b:
            period = 2.0 * span
            offset = (v - a) % period
            v = a + (offset if offset <= span else period - offset)
        out.append(v)
    return out


def _mean(points: list[Point]) -> Point:
    """Coordinate-wise mean, summed from 0.0 over the points in order and
    then divided, as ``np.mean(points, axis=0)`` does."""
    sums = [0.0] * len(points[0])
    for point in points:
        sums = [s + v for s, v in zip(sums, point)]
    return [s / len(points) for s in sums]


def _sup_distance(x: Point, y: Point) -> float:
    """``np.max(np.abs(x - y))``: the largest coordinate gap, NaN if any gap is NaN."""
    out = -math.inf
    for a, b in zip(x, y):
        gap = abs(a - b)
        if gap > out or gap != gap:
            out = gap
    return out


def _ordered(values: list[float]) -> list[int]:
    """Stable ascending order with NaN last, as ``np.argsort(kind="stable")``."""
    return sorted(range(len(values)), key=lambda i: (values[i] != values[i], values[i]))


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]],
    tol: float = 1e-8,
    max_iter: int = 500,
    *,
    f_start: float | None = None,
) -> OptimizerResult:
    """Minimize ``objective`` inside the box ``bounds`` starting from ``x0``.

    Converged when the simplex diameter or the objective spread drops below
    ``tol``; otherwise stops at ``max_iter`` with ``converged=False``. The
    returned point is never worse than the start point. A caller that has
    already evaluated ``objective`` at ``x0`` passes the value as
    ``f_start``, which is used when ``x0`` lies inside the box.
    """
    start = np.asarray(x0, dtype=float).tolist()
    lo = np.array([b[0] for b in bounds], dtype=float).tolist()
    hi = np.array([b[1] for b in bounds], dtype=float).tolist()
    if len(lo) != len(start):
        raise ConfigError("nelder_mead: bounds length must match x0")
    if any(a > b for a, b in zip(lo, hi)):
        raise ConfigError("nelder_mead: empty box")

    def evaluate(x: Point) -> float:
        return float(objective(np.array(x)))

    n = len(start)
    folded = _fold_into_box(start, lo, hi)
    f0 = f_start if f_start is not None and folded == start else evaluate(folded)
    start = folded
    if not math.isfinite(f0):
        raise ConfigError("nelder_mead: objective not finite at start point")

    simplex = [start]
    for i in range(n):
        step = 0.05 * abs(start[i]) if start[i] != 0 else 0.05
        vertex = start.copy()
        vertex[i] += step
        simplex.append(_fold_into_box(vertex, lo, hi))
    values = [f0] + [evaluate(v) for v in simplex[1:]]

    def sort_simplex() -> None:
        order = _ordered(values)
        simplex[:] = [simplex[i] for i in order]
        values[:] = [values[i] for i in order]

    sort_simplex()
    iterations = 0
    converged = False
    while iterations < max_iter:
        best = simplex[0]
        diameter = max(_sup_distance(v, best) for v in simplex[1:]) if n else 0.0
        spread = values[-1] - values[0]
        if diameter < tol:
            converged = True
            break
        if spread < tol:
            # tied vertex values on a wide simplex: either a flat objective
            # (converged) or a symmetric straddle of the minimum (keep going)
            probe = evaluate(_fold_into_box(_mean(simplex), lo, hi))
            if abs(probe - values[0]) < tol:
                converged = True
                break
        iterations += 1

        centroid = _mean(simplex[:-1])
        worst = simplex[-1]

        reflected = _fold_into_box([c + _REFLECT * (c - w) for c, w in zip(centroid, worst)], lo, hi)
        f_reflected = evaluate(reflected)
        if values[0] <= f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[0]:
            expanded = _fold_into_box([c + _EXPAND * (c - w) for c, w in zip(centroid, worst)], lo, hi)
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        else:
            contracted = _fold_into_box([c + _CONTRACT * (w - c) for c, w in zip(centroid, worst)], lo, hi)
            f_contracted = evaluate(contracted)
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, n + 1):
                    simplex[i] = _fold_into_box([b + _SHRINK * (v - b) for b, v in zip(best, simplex[i])], lo, hi)
                    values[i] = evaluate(simplex[i])
        sort_simplex()

    return OptimizerResult(
        argmin=np.array(simplex[0]),
        objective_value=values[0],
        iterations=iterations,
        converged=converged,
    )

