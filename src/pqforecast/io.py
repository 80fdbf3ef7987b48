"""File formats: the nine CSV tables, planning levels and the run manifest.

Every CSV table goes through one reader, ``_read_csv``, and one writer,
``_write_csv``; each table has one header constant. The csv module writes
floats (numpy's float64 included) with ``repr``, the shortest round-trip
form, so outputs are byte-stable across runs, which the determinism
guarantees rely on. The forecast table travels as one ``ForecastBlock``
per series, a (producers x horizon) matrix, in both directions. Writes are
atomic: every file this module writes, and the ground truth and figures
written through ``write_text``, goes to a temp file in the target's
directory that replaces the target only once complete, so an interrupted
stage leaves no half-written file behind.
"""

from __future__ import annotations

import configparser
import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError
from .evaluation import (
    ComparisonReport,
    CompositionReport,
    Leaderboard,
    LeaderboardRow,
    SizeAggregate,
)
from .ensembles import parse_producer
from .models import ForecastBlock
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
REJECTIONS_HEADER = ["series_id", "reason"]
FORECAST_HEADER = ["series_id", "producer", "h", "value"]
LEADERBOARD_HEADER = ["rank", "producer", "mean_mae", "mean_smape", "mean_rank", "benchmark_ratio"]
SIZE_AGGREGATES_HEADER = ["size", "count", "mean_smape", "q25", "median", "q75", "min", "max"]
COMPOSITION_HEADER = ["kind", "key", "value"]
COMPARISON_HEADER = ["series_id", "individual_smape", "ensemble_smape", "relative_improvement"]
ECDF_HEADER = ["relative_improvement", "cumulative_probability"]


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """Open a temp file next to ``path`` that replaces ``path`` when the block
    completes and is removed, leaving ``path`` untouched, when it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` atomically."""
    with _replacing(path) as fh:
        fh.write(text)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path: Path, header: Sequence[str], take: Callable[[list[str]], None]) -> None:
    """Check the header, then pass each non-blank row to ``take``. A row of
    the wrong width or a ``ValueError`` from ``take`` names file and line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise DataError(f"{path}: expected header {','.join(header)}")
        width, taken = len(header), False
        for row in reader:
            if row:
                try:
                    if len(row) != width:
                        raise ValueError(f"expected {width} columns, got {len(row)}")
                    take(row)
                except ValueError as exc:
                    raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
                taken = True
    if not taken:
        raise DataError(f"{path}: no data")


# -- raw measurements -------------------------------------------------------

def read_raw_csv(path: Path) -> list[RawSeries]:
    """Parse 10-minute measurements grouped by series, in file order."""
    samples: dict[str, list[tuple[datetime, float]]] = {}

    def take(row: list[str]) -> None:
        series_id, ts_text, value_text = row
        samples.setdefault(series_id, []).append((datetime.fromisoformat(ts_text), float(value_text)))

    _read_csv(path, RAW_HEADER, take)
    return [RawSeries(series_id=sid, samples=rows) for sid, rows in samples.items()]


def write_raw_csv(path: Path, series: Iterable[RawSeries]) -> None:
    _write_csv(path, RAW_HEADER, (
        (s.series_id, ts.isoformat(), value) for s in series for ts, value in s.samples
    ))


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
    _write_csv(path, WEEKLY_HEADER, (
        (s.series_id, *add_weeks(s.start_week, i), value, int(filled))
        for s in series
        for i, (value, filled) in enumerate(zip(s.values, s.filled_flags))
    ))


def read_weekly_csv(path: Path) -> list[WeeklySeries]:
    rows_by_series: dict[str, list[tuple[tuple[int, int], float, bool]]] = {}

    def take(row: list[str]) -> None:
        sid, year, week, value, filled = row
        rows_by_series.setdefault(sid, []).append(((int(year), int(week)), float(value), filled == "1"))

    _read_csv(path, WEEKLY_HEADER, take)
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
    _write_csv(path, REJECTIONS_HEADER, ((r.series_id, r.reason.value) for r in rejections))


# -- forecasts --------------------------------------------------------------

def write_forecast_csv(path: Path, blocks: Iterable[ForecastBlock]) -> None:
    _write_csv(path, FORECAST_HEADER, (
        (block.series_id, producer, h, value) for block in blocks
        for producer, row in zip(block.producers, block.values)
        for h, value in enumerate(row.tolist(), start=1)
    ))


def read_forecast_csv(path: Path) -> list[ForecastBlock]:
    """One block per series, series and producers in file order. Every
    producer of a series needs the same steps 1..H, each once, and a label
    that looks like an ensemble's must name one."""
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
        blocks.append(ForecastBlock(series_id=sid, producers=list(by_producer), values=np.array(rows)))
    return blocks


# -- leaderboards and analyses ------------------------------------------------

def write_leaderboard_csv(path: Path, leaderboard: Leaderboard) -> None:
    _write_csv(path, LEADERBOARD_HEADER, (
        (position, r.producer, r.mean_mae, r.mean_smape, r.mean_rank, r.benchmark_ratio)
        for position, r in enumerate(leaderboard.rows, start=1)
    ))


def read_leaderboard_csv(path: Path) -> Leaderboard:
    rows: list[LeaderboardRow] = []
    _read_csv(path, LEADERBOARD_HEADER,
              lambda row: rows.append(LeaderboardRow(row[1], *map(float, row[2:]))))
    return Leaderboard(rows=rows, n_series=0)


def write_size_aggregates_csv(path: Path, aggregates: Sequence[SizeAggregate]) -> None:
    _write_csv(path, SIZE_AGGREGATES_HEADER, (
        (a.size, a.count, a.mean, a.q25, a.median, a.q75, a.min, a.max) for a in aggregates
    ))


def read_size_aggregates_csv(path: Path) -> list[SizeAggregate]:
    aggregates: list[SizeAggregate] = []
    _read_csv(path, SIZE_AGGREGATES_HEADER, lambda row: aggregates.append(
        SizeAggregate(int(row[0]), int(row[1]), *map(float, row[2:]))))
    return aggregates


# composition_top.csv rows: kind -> (key type, value type)
_COMPOSITION_KINDS = {
    "meta": (str, int),
    "model_share": (str, float),
    "size_count": (int, int),
    "method_count": (str, int),
}


def write_composition_csv(path: Path, report: CompositionReport) -> None:
    _write_csv(path, COMPOSITION_HEADER, [
        ("meta", "top_n", report.top_n),
        *(("model_share", model, share) for model, share in report.model_share.items()),
        *(("size_count", size, count) for size, count in report.size_histogram.items()),
        *(("method_count", method, count) for method, count in report.method_histogram.items()),
    ])


def read_composition_csv(path: Path) -> CompositionReport:
    parts: dict[str, dict] = {kind: {} for kind in _COMPOSITION_KINDS}

    def take(row: list[str]) -> None:
        kind, key, value = row
        if kind not in parts:
            raise ValueError(f"unknown kind {kind!r}")
        key_type, value_type = _COMPOSITION_KINDS[kind]
        parts[kind][key_type(key)] = value_type(value)

    _read_csv(path, COMPOSITION_HEADER, take)
    return CompositionReport(
        top_n=parts["meta"].get("top_n", 0),
        model_share=parts["model_share"],
        size_histogram=parts["size_count"],
        method_histogram=parts["method_count"],
        size_aggregates=[],
    )


def write_comparison_csv(path: Path, report: ComparisonReport) -> None:
    _write_csv(path, COMPARISON_HEADER, zip(
        report.series_ids, report.individual_smape, report.ensemble_smape,
        report.relative_improvement,
    ))


def read_comparison_csv(path: Path) -> ComparisonReport:
    series_ids: list[str] = []
    values: list[list[float]] = []

    def take(row: list[str]) -> None:
        values.append([float(v) for v in row[1:]])
        series_ids.append(row[0])

    _read_csv(path, COMPARISON_HEADER, take)
    individual, ensemble, improvement = np.array(values).T
    return ComparisonReport(
        individual_producer="best individual", ensemble_producer="best ensemble",
        series_ids=series_ids, individual_smape=individual, ensemble_smape=ensemble,
        relative_improvement=improvement,
    )


def write_ecdf_csv(path: Path, report: ComparisonReport) -> None:
    _write_csv(path, ECDF_HEADER, zip(*report.ecdf()))


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
        parser[section] = {"level": repr(float(pl.level))}
    with _replacing(path) as fh:
        parser.write(fh)


# -- run manifest -----------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    stage: str
    series_id: str
    producer: str
    message: str


def write_manifest(path: Path, entries: Iterable[ManifestEntry]) -> None:
    with _replacing(path) as fh:
        for e in entries:
            fh.write(json.dumps({
                "stage": e.stage, "series_id": e.series_id,
                "producer": e.producer, "message": e.message,
            }, sort_keys=True) + "\n")
