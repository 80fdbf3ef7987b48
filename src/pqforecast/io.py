"""File formats: raw and weekly CSV, forecast CSV, leaderboards, planning
levels and the run manifest.

All floats are written with ``repr`` (shortest round-trip form) so outputs
are byte-stable across runs, which the determinism guarantees rely on.
"""

from __future__ import annotations

import configparser
import csv
import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .evaluation import Leaderboard, LeaderboardRow
from .models import Forecast
from .weekly import (
    PlanningLevel,
    RawSeries,
    Rejection,
    WeeklySeries,
    add_weeks,
    week_start,
)

RAW_HEADER = ["series_id", "timestamp_iso8601", "value"]
WEEKLY_HEADER = ["series_id", "iso_year", "iso_week", "utilization_percent", "filled"]
FORECAST_HEADER = ["series_id", "producer", "h", "value"]
LEADERBOARD_HEADER = ["rank", "producer", "mean_mae", "mean_smape", "mean_rank", "benchmark_ratio"]


def _fmt(value: float) -> str:
    return repr(float(value))


# -- raw measurements -------------------------------------------------------

def read_raw_csv(path: Path) -> list[RawSeries]:
    """Parse 10-minute measurements grouped by series, in file order."""
    samples: dict[str, list[tuple[datetime, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RAW_HEADER:
            raise DataError(f"{path}: expected header {','.join(RAW_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            series_id, ts_text, value_text = row
            try:
                ts = datetime.fromisoformat(ts_text)
                value = float(value_text)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            samples.setdefault(series_id, []).append((ts, value))
    if not samples:
        raise DataError(f"{path}: no data")
    return [RawSeries(series_id=sid, samples=rows) for sid, rows in samples.items()]


def write_raw_csv(path: Path, series: Iterable[RawSeries]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        for s in series:
            for ts, value in s.samples:
                writer.writerow([s.series_id, ts.isoformat(), _fmt(value)])


def weekly_to_raw(series: WeeklySeries, missing_weeks: Sequence[int] = ()) -> RawSeries:
    """Expand a weekly series to a constant-valued 10-minute grid (the weekly
    95th percentile of constant data is the value itself)."""
    skip = set(missing_weeks)
    samples = []
    for i, value in enumerate(series.values):
        if i in skip:
            continue
        monday = week_start(add_weeks(series.start_week, i))
        start = datetime.combine(monday, datetime.min.time(), tzinfo=timezone.utc)
        for slot in range(1008):
            samples.append((start + timedelta(minutes=10 * slot), float(value)))
    return RawSeries(series_id=series.series_id, samples=samples)


# -- weekly series ----------------------------------------------------------

def write_weekly_csv(path: Path, series: Iterable[WeeklySeries]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEEKLY_HEADER)
        for s in series:
            for i, (value, filled) in enumerate(zip(s.values, s.filled_flags)):
                year, week = add_weeks(s.start_week, i)
                writer.writerow([s.series_id, year, week, _fmt(value), int(filled)])


def read_weekly_csv(path: Path) -> list[WeeklySeries]:
    rows_by_series: dict[str, list[tuple[tuple[int, int], float, bool]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != WEEKLY_HEADER:
            raise DataError(f"{path}: expected header {','.join(WEEKLY_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                sid, year, week, value, filled = row
                entry = ((int(year), int(week)), float(value), filled == "1")
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            rows_by_series.setdefault(sid, []).append(entry)
    if not rows_by_series:
        raise DataError(f"{path}: no data")

    out = []
    for sid, rows in rows_by_series.items():
        weeks = [r[0] for r in rows]
        for prev, cur in zip(weeks, weeks[1:]):
            if cur != add_weeks(prev, 1):
                raise DataError(f"{path}: {sid}: weeks not consecutive at {cur}")
        out.append(WeeklySeries(
            series_id=sid,
            start_week=weeks[0],
            values=np.array([r[1] for r in rows]),
            filled_flags=np.array([r[2] for r in rows], dtype=bool),
        ))
    return out


def write_rejections_csv(path: Path, rejections: Iterable[Rejection]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "reason"])
        for r in rejections:
            writer.writerow([r.series_id, r.reason.value])


# -- forecasts --------------------------------------------------------------

def write_forecast_csv(path: Path, forecasts: Iterable[Forecast]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_HEADER)
        for fc in forecasts:
            for h, value in enumerate(fc.values, start=1):
                writer.writerow([fc.series_id, fc.producer, h, _fmt(value)])


def read_forecast_csv(path: Path) -> list[Forecast]:
    by_key: dict[tuple[str, str], dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FORECAST_HEADER:
            raise DataError(f"{path}: expected header {','.join(FORECAST_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                sid, producer, h, value = row
                step, number = int(h), float(value)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            steps = by_key.setdefault((sid, producer), {})
            if step in steps:
                raise DataError(f"{path}:{lineno}: duplicate row for ({sid}, {producer}, h={step})")
            steps[step] = number
    if not by_key:
        raise DataError(f"{path}: no data")

    out = []
    for (sid, producer), steps in by_key.items():
        horizon = len(steps)
        if sorted(steps) != list(range(1, horizon + 1)):
            raise DataError(f"{path}: ({sid}, {producer}): steps are not 1..{horizon}")
        values = np.array([steps[h] for h in range(1, horizon + 1)])
        out.append(Forecast(series_id=sid, producer=producer, values=values, horizon=horizon))
    return out


# -- leaderboards -----------------------------------------------------------

def write_leaderboard_csv(path: Path, leaderboard: Leaderboard) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEADERBOARD_HEADER)
        for position, row in enumerate(leaderboard.rows, start=1):
            writer.writerow([
                position, row.producer, _fmt(row.mean_mae), _fmt(row.mean_smape),
                _fmt(row.mean_rank), _fmt(row.benchmark_ratio),
            ])


def read_leaderboard_csv(path: Path) -> Leaderboard:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LEADERBOARD_HEADER:
            raise DataError(f"{path}: expected header {','.join(LEADERBOARD_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                _, producer, mean_mae, mean_smape, mean_rank, br = row
                rows.append(LeaderboardRow(
                    producer=producer, mean_mae=float(mean_mae), mean_smape=float(mean_smape),
                    mean_rank=float(mean_rank), benchmark_ratio=float(br),
                ))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty leaderboard")
    return Leaderboard(rows=rows, n_series=0)


# -- planning levels --------------------------------------------------------

def load_planning_levels(path: Path) -> dict[tuple[str, str], PlanningLevel]:
    """INI file with one ``[parameter@voltage]`` section per pair and a
    numeric ``level`` entry."""
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"{path}: cannot read planning levels")
    levels = {}
    for section in parser.sections():
        if "@" not in section:
            raise ConfigError(f"{path}: section [{section}] is not parameter@voltage")
        parameter, _, voltage = section.partition("@")
        try:
            level = parser.getfloat(section, "level")
        except (configparser.NoOptionError, ValueError) as exc:
            raise ConfigError(f"{path}: [{section}] needs a numeric 'level'") from exc
        levels[(parameter, voltage)] = PlanningLevel(parameter=parameter, voltage_level=voltage, level=level)
    if not levels:
        raise ConfigError(f"{path}: no planning levels defined")
    return levels


def write_planning_levels(path: Path, levels: Iterable[PlanningLevel]) -> None:
    parser = configparser.ConfigParser()
    for pl in levels:
        section = f"{pl.parameter}@{pl.voltage_level}"
        parser[section] = {"level": _fmt(pl.level)}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


# -- run manifest -----------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    stage: str
    series_id: str
    producer: str
    message: str


def write_manifest(path: Path, entries: Iterable[ManifestEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps({
                "stage": e.stage, "series_id": e.series_id,
                "producer": e.producer, "message": e.message,
            }, sort_keys=True) + "\n")
