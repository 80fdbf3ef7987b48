from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional

import numpy as np
import pytest

from pqforecast.ensembles import CombinationMethod, enumerate_ensembles, parse_producer
from pqforecast.errors import ConfigError, DataError
from pqforecast.io import FORECAST_HEADER, RAW_HEADER, _read_csv
from pqforecast.models import PUBLIC_MODELS, ForecastBlock
from pqforecast.weekly import (
    MAX_FILL_DISTANCE_WEEKS,
    MAX_GAP_FRACTION,
    MIN_SAMPLES_PER_WEEK,
    MINUTES_PER_WEEK,
    RawSeries,
    Rejection,
    RejectionReason,
    WeeklySeries,
    WeekId,
    utc_minute,
)

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
    first = utc_minute(start)
    minutes = [first + MINUTES_PER_WEEK * w + 10 * i
               for w, values in enumerate(week_values) for i in range(len(values))]
    values = [float(v) for week in week_values for v in week]
    return RawSeries.from_columns(series_id, minutes, values)


def make_aggs(p95s: list[float | None], start_week: WeekId = WEEK_2022_1) -> tuple[WeekId, np.ndarray]:
    """Weekly aggregates, as ``aggregate_weekly`` returns them, straight from
    a p95 list; None marks an invalid week."""
    return start_week, np.array([np.nan if p is None else float(p) for p in p95s])


def reference_fill_gaps(series_id: str, start_week: WeekId, p95s: list[float | None]) -> WeeklySeries | Rejection:
    """``fill_gaps``' per-week loop, verbatim but for reading each week's
    percentile from a list (None for an invalid week) instead of a list of
    per-week objects: the oracle for the array fill."""
    if not p95s:
        raise DataError(f"{series_id}: no data")

    n = len(p95s)
    absent = [i for i, p in enumerate(p95s) if p is None]

    last_present = -1
    values = np.empty(n, dtype=float)
    flags = np.zeros(n, dtype=bool)
    for i, p95 in enumerate(p95s):
        if p95 is not None:
            values[i] = p95
            last_present = i
            continue
        if last_present < 0 or i - last_present > MAX_FILL_DISTANCE_WEEKS:
            return Rejection(series_id, RejectionReason.UNFILLABLE_GAP)
        values[i] = p95s[last_present]  # type: ignore[assignment]
        flags[i] = True

    if len(absent) / n > MAX_GAP_FRACTION:
        return Rejection(series_id, RejectionReason.TOO_MANY_GAPS)

    return WeeklySeries(series_id=series_id, start_week=start_week, values=values, filled_flags=flags)


@dataclass
class ReferenceRawSeries:
    """``RawSeries`` as it held every sample as a ``(datetime, float)``
    tuple, validation verbatim: the oracle for the array checks' verdicts
    and messages."""

    series_id: str
    samples: list[tuple[datetime, float]]

    def __post_init__(self) -> None:
        normalized = []
        prev: Optional[datetime] = None
        for ts, value in self.samples:
            if ts.tzinfo is None:
                ts = ts.replace(tzinfo=timezone.utc)
            else:
                ts = ts.astimezone(timezone.utc)
            if ts.minute % 10 != 0 or ts.second != 0 or ts.microsecond != 0:
                raise DataError(
                    f"{self.series_id}: timestamp {ts.isoformat()} is not on the 10-minute grid"
                )
            if prev is not None and ts <= prev:
                if ts == prev:
                    raise DataError(f"{self.series_id}: duplicate timestamp {ts.isoformat()}")
                raise DataError(f"{self.series_id}: timestamps not strictly increasing at {ts.isoformat()}")
            if not np.isfinite(value) or value < 0:
                raise DataError(f"{self.series_id}: invalid value {value!r} at {ts.isoformat()}")
            normalized.append((ts, float(value)))
            prev = ts
        self.samples = normalized


def _reference_week_of(ts: datetime) -> WeekId:
    iso = ts.date().isocalendar()
    return (iso[0], iso[1])


def reference_aggregate_weekly(raw: ReferenceRawSeries) -> tuple[WeekId, np.ndarray]:
    """``aggregate_weekly`` as it bucketed the tuples one by one, verbatim
    but for returning its first week and its percentiles (NaN for an invalid
    week) in ``aggregate_weekly``'s form: the oracle for the searchsorted
    weeks."""
    if not raw.samples:
        raise DataError(f"{raw.series_id}: no data")

    first_ts = raw.samples[0][0]
    last_ts = raw.samples[-1][0]

    # First Monday 00:00 at or after the first sample.
    first_day = first_ts.date()
    monday = first_day - timedelta(days=first_day.weekday())
    span_start = datetime.combine(monday, datetime.min.time(), tzinfo=timezone.utc)
    if span_start < first_ts:
        span_start += timedelta(weeks=1)

    # Last sample covers [t, t + 10 min); the final full week must end by then.
    span_end_limit = last_ts + timedelta(minutes=10)
    n_weeks = int((span_end_limit - span_start).days // 7)
    if n_weeks < 1:
        raise DataError(f"{raw.series_id}: span too short (no full calendar week)")

    buckets: list[list[float]] = [[] for _ in range(n_weeks)]
    for ts, value in raw.samples:
        offset = ts - span_start
        if offset < timedelta(0):
            continue
        idx = int(offset.days // 7)
        if idx >= n_weeks:
            continue
        buckets[idx].append(value)

    p95s = [np.percentile(bucket, 95) if len(bucket) >= MIN_SAMPLES_PER_WEEK else np.nan for bucket in buckets]
    return _reference_week_of(span_start), np.array(p95s)


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


def reference_read_raw_csv(path) -> list[RawSeries]:
    """``io.read_raw_csv`` as it parsed every row with the csv module
    (``io._read_csv``) and every timestamp with ``datetime.fromisoformat``,
    verbatim: the oracle for the line-by-line reader's samples and for its
    error texts, ``file:line`` included."""
    columns: dict[str, tuple[array, array]] = {}

    def take(row: list[str]) -> None:
        series_id, ts_text, value_text = row
        minutes, values = columns.get(series_id) or columns.setdefault(series_id, (array("q"), array("d")))
        minutes.append(utc_minute(datetime.fromisoformat(ts_text)))
        values.append(float(value_text))

    _read_csv(path, RAW_HEADER, take)
    try:  # each series' buffers are dropped once its array is built
        return [RawSeries.from_columns(sid, *columns.pop(sid)) for sid in list(columns)]
    except DataError as exc:  # a sample off the grid, out of order or invalid
        raise DataError(f"{path}: {exc}") from exc


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


def reference_write_raw_csv(path, series) -> None:
    """The raw table as the csv writer writes it, each minute through
    ``datetime`` one row at a time: the oracle for ``io.write_raw_csv``'s
    bytes and errors."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        writer.writerows(
            (s.series_id, (epoch + timedelta(minutes=minute)).isoformat(), value) for s in series
            for minute, value in zip(s.samples["minute"].tolist(), s.samples["value"].tolist())
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


def reference_iter_forecast_csv(path) -> list[ForecastBlock]:
    """The writer-order forecast reader with every row parsed by the csv
    module (``io._read_csv``, which turns a ``csv.Error`` into a data error at
    its line) and checked by one ``take``: the oracle for
    ``io.iter_forecast_csv``'s blocks and for its error texts, ``file:line``
    included."""
    blocks: list[ForecastBlock] = []
    done: set[str] = set()
    sid: Optional[str] = None
    producers: list[str] = []
    rows: list[list[float]] = []  # one per producer of sid
    horizon = 0

    def end_producer() -> None:
        nonlocal horizon
        if not horizon:
            horizon = len(rows[-1])
        elif len(rows[-1]) != horizon:
            raise DataError(f"{path}: {sid}: {producers[-1]} has {len(rows[-1])} steps, "
                            f"{producers[0]} has {horizon}")

    def end_series() -> None:
        end_producer()
        done.add(sid)
        try:
            blocks.append(ForecastBlock(sid, producers, np.array(rows)))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc

    def take(row: list[str]) -> None:
        nonlocal sid, producers, rows, horizon
        row_sid, producer, h, value = row
        step, number = int(h), float(value)
        if row_sid != sid:
            if sid is not None:
                end_series()
            if row_sid in done:
                raise ValueError(f"series {row_sid} resumes after other series")
            sid, producers, rows, horizon = row_sid, [], [], 0
        if not producers or producer != producers[-1]:
            if producers:
                end_producer()
            if producer in producers:
                raise ValueError(f"({sid}, {producer}) resumes after other producers")
            try:
                parse_producer(producer)
            except ConfigError as exc:
                raise ValueError(str(exc)) from exc
            producers.append(producer)
            rows.append([])
        last = len(rows[-1])
        if step != last + 1:
            if 1 <= step <= last:
                raise ValueError(f"duplicate row for ({sid}, {producer}, h={step})")
            raise ValueError(f"({sid}, {producer}): steps must run 1..H in order, got {step} after {last}")
        rows[-1].append(number)

    _read_csv(path, FORECAST_HEADER, take)
    end_series()
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
