"""Weekly utilization series: domain types and the preprocessing pipeline.

Raw 10-minute power-quality measurements are turned into gap-free weekly
series in four steps; steps 1 and 2 work on one array of weekly values per
series:

1. ``aggregate_weekly`` - 95th percentile per full calendar week (Monday to
   Sunday, UTC), a week being valid only if at least 95 % of its 1008
   10-minute samples are present; an invalid week's value is ``NaN``. A
   series' samples arrive in time order and ``RawWeeks`` holds only the
   current week of each: each week's samples are checked and aggregated as
   soon as the series' next week begins, so memory does not grow with the
   series' length.
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
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Optional

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


class RawWeeks:
    """One series' 10-minute samples, one calendar week (Monday 00:00 to
    Sunday 24:00 UTC) at a time: every sample arrives through ``extend``,
    a run at a time in arrival order, and ``minutes`` (UTC minutes since
    the epoch) and ``samples`` (values) hold the current week's. A sample
    of a later week, or ``close``, first hands the week to ``aggregate``
    (``aggregate_weekly``), which checks it and gives its percentile. One
    percentile is kept per full calendar week of the span, from the first
    Monday 00:00 at or after the first sample; a week without samples is
    ``NaN``. The first sample that fails the check ends the series:
    ``close`` raises its error.
    """

    def __init__(self, series_id: str, first_minute: int, aggregate: Callable[["RawWeeks"], float]) -> None:
        self.series_id, self.aggregate = series_id, aggregate
        self.minutes, self.samples = array("q"), array("d")
        self.span_start = first_minute + (MONDAY_MINUTE - first_minute) % MINUTES_PER_WEEK
        self.end = _week_end(first_minute)  # of the current week
        self.p95 = array("d")  # the span's weeks so far
        self.error: Optional[DataError] = None

    def extend(self, minutes: np.ndarray, values: np.ndarray) -> None:
        """Take a run of samples, int64 minutes and float64 values, a week's
        run at a time. A sample at or after the current week's end hands
        that week out and starts its own, and a sample that goes back in
        time joins the current week: a week starts where the running
        maximum of the weeks reached moves on. A week of more than
        ``SAMPLES_PER_WEEK`` samples fails the check, so it is handed out
        early, at ``SAMPLES_PER_WEEK + 1``."""
        current = (self.end - MONDAY_MINUTE) // MINUTES_PER_WEEK - 1
        reached = np.maximum.accumulate(np.maximum((minutes - MONDAY_MINUTE) // MINUTES_PER_WEEK, current))
        edges = [0, *np.flatnonzero(np.diff(reached, prepend=current)).tolist(), len(minutes)]
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if k:  # minutes[lo] is at or after the current week's end
                self._hand_out(last=False)
                self.end = _week_end(int(minutes[lo]))
            while lo < hi:
                stop = min(hi, lo + SAMPLES_PER_WEEK + 1 - len(self.samples))
                self.minutes.frombytes(minutes[lo:stop].tobytes())
                self.samples.frombytes(values[lo:stop].tobytes())
                lo = stop
                if len(self.samples) > SAMPLES_PER_WEEK:
                    self._hand_out(last=False)

    def close(self) -> tuple[str, Optional[WeekId], np.ndarray]:
        """The series' id, first week and weekly percentiles (none, and no
        first week, when the span holds no full calendar week)."""
        self._hand_out(last=True)
        if self.error is not None:
            raise self.error
        week = (EPOCH + timedelta(minutes=self.span_start)).isocalendar()[:2] if self.p95 else None
        return self.series_id, week, np.array(self.p95)

    def _hand_out(self, last: bool) -> None:
        if self.error is None:
            try:
                p95 = self.aggregate(self)
            except DataError as exc:
                self.error = exc
            else:
                week = (self.end - self.span_start) // MINUTES_PER_WEEK - 1  # -1: the first, partial week
                if week >= 0:
                    self.p95.extend([math.nan] * (week - len(self.p95)))  # weeks without a sample
                    # The last sample covers [t, t + 10 min); the final
                    # full week must end by then.
                    if not last or self.minutes[-1] + 10 >= self.end:
                        self.p95.append(p95)
        del self.minutes[:], self.samples[:]


def _week_end(minute: int) -> int:
    """The next Monday 00:00 after ``minute``."""
    return minute - (minute - MONDAY_MINUTE) % MINUTES_PER_WEEK + MINUTES_PER_WEEK


def aggregate_weekly(week: RawWeeks) -> float:
    """Check one calendar week's samples and return their 95th percentile,
    ``NaN`` for a week with fewer than ``MIN_SAMPLES_PER_WEEK`` samples. The
    first sample off the 10-minute grid, not after the one before it, or
    with a negative or non-finite value raises.
    """
    minutes, values = np.array(week.minutes), np.array(week.samples)
    off_grid = minutes % 10 != 0
    unordered = np.diff(minutes, prepend=minutes[:1] - 1) <= 0
    invalid = ~np.isfinite(values) | (values < 0)
    bad = off_grid | unordered | invalid
    if bad.any():
        i = int(bad.argmax())  # the first offending sample, checked as it was
        at = (EPOCH + timedelta(minutes=int(minutes[i]))).isoformat()
        if off_grid[i]:
            raise DataError(f"{week.series_id}: timestamp {at} is not on the 10-minute grid")
        if unordered[i]:
            if minutes[i] == minutes[i - 1]:
                raise DataError(f"{week.series_id}: duplicate timestamp {at}")
            raise DataError(f"{week.series_id}: timestamps not strictly increasing at {at}")
        raise DataError(f"{week.series_id}: invalid value {float(values[i])!r} at {at}")
    return _p95(values) if len(values) >= MIN_SAMPLES_PER_WEEK else math.nan


def _p95(values: np.ndarray) -> float:
    """``np.percentile(values, 95)`` to the byte, without its per-call
    overhead, for two or more values: linear interpolation between the
    order statistics around ``0.95 (n - 1)``, from the nearer one as numpy
    does."""
    h = (len(values) - 1) * 0.95
    lo = math.floor(h)
    t = h - lo
    a, b = np.partition(values, (lo, lo + 1))[lo:lo + 2].tolist()
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def fill_gaps(series_id: str, start_week: Optional[WeekId], p95: np.ndarray) -> WeeklySeries | Rejection:
    """Fill missing (``NaN``) weeks by carrying the nearest preceding valid
    value forward.

    A gap week takes the most recent *originally present* percentile at most
    ``MAX_FILL_DISTANCE_WEEKS`` back. Returns a :class:`Rejection` when any
    gap cannot be filled (including leading gaps) or when more than 20 % of
    weeks are missing; no weeks at all, a span without a full calendar
    week, is a data error.
    """
    p95 = np.asarray(p95, dtype=float)
    if not len(p95):
        raise DataError(f"{series_id}: span too short (no full calendar week)")
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
