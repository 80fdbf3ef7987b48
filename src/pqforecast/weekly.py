"""Weekly utilization series: domain types and the preprocessing pipeline.

Raw 10-minute power-quality measurements are turned into gap-free weekly
series in four steps; steps 1 and 2 work on one array of weekly values per
series:

1. ``aggregate_weekly`` - 95th percentile per full calendar week (Monday to
   Sunday, UTC), a week being valid only if at least 95 % of its 1008
   10-minute samples are present; an invalid week's value is ``NaN``.
2. ``fill_gaps`` - carry the most recent valid weekly value forward over
   gaps of at most 10 weeks; series with more than 20 % missing weeks or an
   unfillable gap are rejected (not an error: rejection is a normal outcome
   of a corpus run).
3. ``normalize`` - divide by the planning level, yielding utilization in
   percent of the limit.
4. ``split_train_test`` - fixed 105-week training / 52-week test geometry,
   the one split that both ``forecast`` and ``evaluate`` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError

SAMPLES_PER_WEEK = 1008  # 10-minute intervals in 7 days
MIN_SAMPLES_PER_WEEK = 958  # ceil(0.95 * 1008)
MAX_GAP_FRACTION = 0.20
MAX_FILL_DISTANCE_WEEKS = 10
TRAIN_WEEKS = 105
TEST_WEEKS = 52

WeekId = tuple[int, int]  # (ISO year, ISO week)

NAIVE_EPOCH = datetime(1970, 1, 1)
EPOCH = NAIVE_EPOCH.replace(tzinfo=timezone.utc)
MINUTES_PER_WEEK = 7 * 24 * 60
MONDAY_MINUTE = 4 * 24 * 60  # 1970-01-05, the first Monday after the epoch
RAW_DTYPE = np.dtype([("minute", np.int64), ("value", np.float64)])  # UTC minute since the epoch


def week_start(week: WeekId) -> date:
    """Monday of the given ISO week."""
    return date.fromisocalendar(week[0], week[1], 1)


def add_weeks(week: WeekId, n: int) -> WeekId:
    d = week_start(week) + timedelta(weeks=n)
    iso = d.isocalendar()
    return (iso[0], iso[1])


def utc_minute(ts: datetime) -> int:
    """Minutes since the epoch of a whole-minute instant; naive means UTC."""
    delta = ts - (NAIVE_EPOCH if ts.tzinfo is None else EPOCH)
    if delta.seconds % 60 or delta.microseconds:
        raise ValueError(f"timestamp {ts.isoformat()} is not a whole minute")
    return delta.days * 1440 + delta.seconds // 60


def minute_isoformat(minute: int) -> str:
    return (EPOCH + timedelta(minutes=int(minute))).isoformat()


@dataclass(frozen=True)
class SeriesKey:
    """Decomposed series identifier: ``site:parameter:voltage_kv``."""

    site: str
    parameter: str
    voltage_level: str

    @classmethod
    def try_parse(cls, series_id: str) -> Optional["SeriesKey"]:
        parts = series_id.split(":")
        if len(parts) != 3 or not all(parts):
            return None
        return cls(parts[0], parts[1], parts[2])


@dataclass
class RawSeries:
    """10-minute measurements for one (site, parameter) pair: one
    ``RAW_DTYPE`` array of UTC minutes since the epoch and values.

    Minutes must be strictly increasing, unique and on the 10-minute grid;
    values are nonnegative and in the parameter's native unit.
    """

    series_id: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=RAW_DTYPE)
        minutes, values = self.samples["minute"], self.samples["value"]
        off_grid = minutes % 10 != 0
        unordered = np.diff(minutes, prepend=minutes[:1] - 1) <= 0
        invalid = ~np.isfinite(values) | (values < 0)
        bad = off_grid | unordered | invalid
        if not bad.any():
            return
        i = int(bad.argmax())  # the first offending sample, checked as it was
        at = minute_isoformat(minutes[i])
        if off_grid[i]:
            raise DataError(f"{self.series_id}: timestamp {at} is not on the 10-minute grid")
        if unordered[i]:
            if minutes[i] == minutes[i - 1]:
                raise DataError(f"{self.series_id}: duplicate timestamp {at}")
            raise DataError(f"{self.series_id}: timestamps not strictly increasing at {at}")
        raise DataError(f"{self.series_id}: invalid value {float(values[i])!r} at {at}")

    @classmethod
    def from_columns(cls, series_id: str, minutes, values) -> "RawSeries":
        samples = np.empty(len(minutes), dtype=RAW_DTYPE)
        samples["minute"], samples["value"] = minutes, values
        return cls(series_id, samples)


@dataclass(frozen=True)
class PlanningLevel:
    """Operator limit for one PQ parameter at one voltage level (a divisor)."""

    parameter: str
    voltage_level: str
    level: float

    def __post_init__(self) -> None:
        if not 0 < self.level < math.inf:
            raise ConfigError(f"planning level for ({self.parameter}, {self.voltage_level}) "
                              f"must be finite and > 0, got {self.level}")


@dataclass
class WeeklySeries:
    """Gap-free, ISO-week-indexed series; values in percent of planning level
    after :func:`normalize`, in native units before."""

    series_id: str
    start_week: WeekId
    values: np.ndarray
    filled_flags: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.filled_flags is None:
            self.filled_flags = np.zeros(len(self.values), dtype=bool)
        self.filled_flags = np.asarray(self.filled_flags, dtype=bool)
        if self.values.ndim != 1:
            raise DataError(f"{self.series_id}: values must be one-dimensional")
        if len(self.filled_flags) != len(self.values):
            raise DataError(f"{self.series_id}: filled_flags length mismatch")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"{self.series_id}: non-finite weekly value")
        if np.any(self.values < 0):
            raise DataError(f"{self.series_id}: negative weekly value")

    def __len__(self) -> int:
        return len(self.values)


class RejectionReason(str, Enum):
    TOO_MANY_GAPS = "too-many-gaps"
    UNFILLABLE_GAP = "unfillable-gap"


@dataclass(frozen=True)
class Rejection:
    """A series dropped by preprocessing, with a machine-readable reason."""

    series_id: str
    reason: RejectionReason


def aggregate_weekly(raw: RawSeries) -> tuple[WeekId, np.ndarray]:
    """Aggregate 10-minute samples to weekly 95th percentiles.

    Only full calendar weeks (Monday 00:00 to Sunday 24:00 UTC) inside the
    data span count. Returns the first week and one percentile per week,
    ``NaN`` for a week with fewer than ``MIN_SAMPLES_PER_WEEK`` samples; the
    percentile estimator is linear interpolation between order statistics.
    """
    minutes, values = raw.samples["minute"], raw.samples["value"]
    if not len(minutes):
        raise DataError(f"{raw.series_id}: no data")

    # First Monday 00:00 at or after the first sample.
    start = int(minutes[0]) + (MONDAY_MINUTE - int(minutes[0])) % MINUTES_PER_WEEK
    # Last sample covers [t, t + 10 min); the final full week must end by then.
    n_weeks = (int(minutes[-1]) + 10 - start) // MINUTES_PER_WEEK
    if n_weeks < 1:
        raise DataError(f"{raw.series_id}: span too short (no full calendar week)")

    bounds = np.searchsorted(minutes, start + MINUTES_PER_WEEK * np.arange(n_weeks + 1)).tolist()
    p95 = np.full(n_weeks, np.nan)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if hi - lo >= MIN_SAMPLES_PER_WEEK:
            p95[i] = np.percentile(values[lo:hi], 95)
    iso = (EPOCH + timedelta(minutes=start)).isocalendar()
    return (iso[0], iso[1]), p95


def fill_gaps(series_id: str, start_week: WeekId, p95: np.ndarray) -> WeeklySeries | Rejection:
    """Fill missing (``NaN``) weeks by carrying the nearest preceding valid
    value forward.

    A gap week takes the most recent *originally present* percentile at most
    ``MAX_FILL_DISTANCE_WEEKS`` back. Returns a :class:`Rejection` when any
    gap cannot be filled (including leading gaps) or when more than 20 % of
    weeks are missing.
    """
    p95 = np.asarray(p95, dtype=float)
    if not len(p95):
        raise DataError(f"{series_id}: no data")
    absent = np.isnan(p95)
    weeks = np.arange(len(p95))
    last_present = np.maximum.accumulate(np.where(absent, -1, weeks))  # -1 before the first
    if np.any(absent & ((last_present < 0) | (weeks - last_present > MAX_FILL_DISTANCE_WEEKS))):
        return Rejection(series_id, RejectionReason.UNFILLABLE_GAP)
    if int(absent.sum()) / len(p95) > MAX_GAP_FRACTION:
        return Rejection(series_id, RejectionReason.TOO_MANY_GAPS)
    return WeeklySeries(series_id=series_id, start_week=start_week, values=p95[last_present],
                        filled_flags=absent)


def normalize(series: WeeklySeries, pl: PlanningLevel) -> WeeklySeries:
    """Express a native-unit weekly series as percent of its planning level.

    When the series id encodes parameter and voltage level
    (``site:parameter:voltage``), they must match the planning level.
    """
    key = SeriesKey.try_parse(series.series_id)
    if key is not None and (key.parameter != pl.parameter or key.voltage_level != pl.voltage_level):
        raise ConfigError(
            f"{series.series_id}: planning level is for ({pl.parameter}, {pl.voltage_level})"
        )
    return WeeklySeries(
        series_id=series.series_id,
        start_week=series.start_week,
        values=100.0 * series.values / pl.level,
        filled_flags=series.filled_flags.copy(),
    )


def split_train_test(series: WeeklySeries) -> tuple[WeeklySeries, WeeklySeries]:
    """First ``TRAIN_WEEKS`` weeks for training, the next ``TEST_WEEKS`` for
    testing; the rest is ignored so every series is evaluated on an
    identical geometry (105 + 52 weeks)."""
    needed = TRAIN_WEEKS + TEST_WEEKS
    if len(series) < needed:
        raise DataError(f"{series.series_id}: insufficient history ({len(series)} weeks, need {needed})")

    def part(lo: int, hi: int, start_week: WeekId) -> WeeklySeries:
        return WeeklySeries(series.series_id, start_week, series.values[lo:hi].copy(),
                            series.filled_flags[lo:hi].copy())

    return (part(0, TRAIN_WEEKS, series.start_week),
            part(TRAIN_WEEKS, needed, add_weeks(series.start_week, TRAIN_WEEKS)))
