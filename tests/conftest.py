from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from pqforecast.ensembles import CombinationMethod, enumerate_ensembles
from pqforecast.models import PUBLIC_MODELS
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
