from __future__ import annotations

import csv
from datetime import datetime, timedelta, timezone
from typing import Optional

import numpy as np
import pytest

from pqforecast.ensembles import CombinationMethod, enumerate_ensembles, parse_producer
from pqforecast.errors import ConfigError, DataError
from pqforecast.io import FORECAST_HEADER, _read_csv
from pqforecast.models import PUBLIC_MODELS, ForecastBlock
from pqforecast.weekly import RawSeries, WeeklyAggregate, WeekId, add_weeks

MONDAY = datetime(2022, 1, 3, tzinfo=timezone.utc)  # ISO (2022, 1)
WEEK_2022_1: WeekId = (2022, 1)

# one verdict line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_raw(week_values: list[list[float]], series_id: str = "site1:UNB:220",
             start: datetime = MONDAY) -> RawSeries:
    """Raw series from per-week sample lists; each week's samples fill the
    grid from Monday 00:00 onward."""
    samples = []
    for w, values in enumerate(week_values):
        week_start = start + timedelta(weeks=w)
        for i, v in enumerate(values):
            samples.append((week_start + timedelta(minutes=10 * i), float(v)))
    return RawSeries(series_id=series_id, samples=samples)


def make_aggs(p95s: list[float | None], start_week: WeekId = WEEK_2022_1) -> list[WeeklyAggregate]:
    """Weekly aggregates straight from a p95 list; None marks an invalid week."""
    out = []
    for i, p in enumerate(p95s):
        out.append(WeeklyAggregate(
            week=add_weeks(start_week, i),
            p95=None if p is None else float(p),
            present_count=1008 if p is not None else 0,
        ))
    return out


def periodic_train(n: int = 105, period: int = 52, base: float = 30.0,
                   amplitude: float = 8.0) -> np.ndarray:
    t = np.arange(n)
    return base + amplitude * np.sin(2 * np.pi * t / period)


def reference_combine(member_rows, method: CombinationMethod, phi=None) -> np.ndarray:
    """One ensemble's forecast the way the per-ensemble ``combine`` made it
    before the kernel, clamped like a ``ForecastBlock``: the oracle for the
    kernel's rows."""
    stacked = np.vstack(member_rows)
    if method is CombinationMethod.MEAN:
        values = stacked.mean(axis=0)
    elif method is CombinationMethod.MEDIAN:
        values = np.median(stacked, axis=0)
    else:
        inv = 1.0 / np.asarray(phi, dtype=float)
        values = (inv / inv.sum()) @ stacked
    return np.maximum(values, 0.0)


def reference_ensembles(members: np.ndarray, methods, phi=None) -> np.ndarray:
    """Every (ensemble, method) row of one series' (8 x H) member matrix, one
    ``reference_combine`` call each, in ``combine``'s order."""
    position = {m: i for i, m in enumerate(PUBLIC_MODELS)}
    rows = []
    for ens in enumerate_ensembles():
        index = [position[m] for m in ens.members]
        for method in methods:
            weights = [phi[method][i] for i in index] if method.needs_phi else None
            rows.append(reference_combine(members[index], method, weights))
    return np.array(rows)


def reference_write_forecast_csv(path, blocks) -> None:
    """The forecast table as the csv writer writes it, one generator tuple
    per row: the oracle for ``io.write_forecast_csv``'s bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "producer", "h", "value"])
        writer.writerows(
            (block.series_id, producer, h, value) for block in blocks
            for producer, row in zip(block.producers, block.values)
            for h, value in enumerate(row.tolist(), start=1)
        )


def reference_read_forecast_csv(path) -> list[ForecastBlock]:
    """The forecast table read into one dict of every row before any block
    is built: the oracle for ``io.read_forecast_csv``'s blocks and errors."""
    steps_by_series: dict[str, dict[str, dict[int, float]]] = {}

    def take(row: list[str]) -> None:
        sid, producer, h, value = row
        step, number = int(h), float(value)
        by_producer = steps_by_series.setdefault(sid, {})
        steps = by_producer.get(producer)
        if steps is None:
            try:
                parse_producer(producer)
            except ConfigError as exc:
                raise ValueError(str(exc)) from exc
            steps = by_producer[producer] = {}
        if step in steps:
            raise ValueError(f"duplicate row for ({sid}, {producer}, h={step})")
        steps[step] = number

    _read_csv(path, FORECAST_HEADER, take)
    blocks = []
    for sid, by_producer in steps_by_series.items():
        first = next(iter(by_producer))
        horizon = len(by_producer[first])
        rows = []
        for producer, steps in by_producer.items():
            if len(steps) != horizon:
                raise DataError(f"{path}: {sid}: {producer} has {len(steps)} steps, "
                                f"{first} has {horizon}")
            if sorted(steps) != list(range(1, horizon + 1)):
                raise DataError(f"{path}: ({sid}, {producer}): steps are not 1..{horizon}")
            rows.append([steps[h] for h in range(1, horizon + 1)])
        try:
            blocks.append(ForecastBlock(series_id=sid, producers=list(by_producer), values=np.array(rows)))
        except DataError as exc:  # a non-finite value, found once per block
            raise DataError(f"{path}: {exc}") from exc
    return blocks


def _reference_tricube(u: np.ndarray) -> np.ndarray:
    """Tricube kernel (1 - |u|^3)^3 on [0, 1), zero outside."""
    u = np.abs(u)
    w = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
    return w


def reference_loess_window(
    x: np.ndarray,
    y: np.ndarray,
    q: int,
    degree: int,
    eval_points: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The per-point ``lstsq`` loess that the closed-form kernel replaced,
    verbatim: the oracle for ``loess_window`` and, through it, for STL."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if len(y) != n:
        raise DataError("loess: x and y lengths differ")
    if degree not in (0, 1, 2):
        raise DataError(f"loess: unsupported degree {degree}")
    if q < degree + 1:
        raise DataError(f"loess: window of {q} points cannot fit degree {degree}")

    out = np.empty(len(eval_points), dtype=float)
    for k, x0 in enumerate(np.asarray(eval_points, dtype=float)):
        d = np.abs(x - x0)
        if q < n:
            # distance to the q-th nearest point
            dq = np.partition(d, q - 1)[q - 1]
            in_win = d <= dq
        else:
            dq = d.max() * (q / n)
            in_win = np.ones(n, dtype=bool)
        if dq <= 0:
            dq = 1.0  # all points at x0: uniform weights
        w = _reference_tricube(d[in_win] / dq)
        if weights is not None:
            w = w * weights[in_win]
        if not np.any(w > 0):
            # robustness weights can wipe out a window; retry on tricube alone
            if weights is not None:
                w = _reference_tricube(d[in_win] / dq)
            if not np.any(w > 0):
                raise DataError(f"loess: degenerate window at x = {x0}")
        if degree == 0:
            out[k] = np.sum(w * y[in_win]) / np.sum(w)
            continue
        t = x[in_win] - x0
        design = np.vander(t, degree + 1, increasing=True)
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(design * sw[:, None], y[in_win] * sw, rcond=None)
        out[k] = beta[0]
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
