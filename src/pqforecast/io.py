"""File formats: the nine CSV tables, planning levels and the run manifest.

Every CSV table but the raw and forecast tables is written by one writer,
``_write_csv``, and the two of them a stage reads back, the weekly table
and the leaderboard, by one reader, ``_read_csv``; each table has one
header constant. Every reader takes its records from ``_Records`` and its
one ``csv.reader``, but for the raw reader's runs of rows in no plain
form, parsed in bulk. The csv module writes floats (numpy's float64
included) with ``repr``, the shortest round-trip form, so outputs are
byte-stable across runs, which the determinism guarantees rely on. The raw
and forecast writers format their lines themselves, one ``write`` per
1,008 rows or per producer, in the same dialect: ids and labels quoted by
the csv module, values with ``repr``, ``\r\n`` line ends. A forecast line
in the plain form of the row before it that continues that row's series,
and a raw line in its series' plain form on the date of that series' last
row that the csv module parsed, are taken from their text directly; every
other line goes through ``_Records``, with the same acceptance, errors and
``file:line`` either way. The raw table is read into one calendar week per
series at a time (``weekly.RawWeeks``) and written from weekly series, a
week at a time. The forecast table travels as one ``ForecastBlock`` per
series, a (producers x horizon) matrix: ``write_forecast_csv`` and
``iter_forecast_csv`` take or give the blocks lazily, so a stage that
streams them holds one series at a time. Its reader takes rows only in the
writer's order, series by series and each producer's steps 1..H in turn,
and yields each series' block as its rows end; ``read_forecast_csv`` is
the same reader collected into a list. Writes are atomic: every file this
module writes, and the ground truth and figures written through
``write_text``, goes to a temp file in the target's directory that
replaces the target only once complete, so an interrupted stage, or one
whose streamed input turns out bad after some series were written, leaves
no half-written file behind.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta
from io import StringIO
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar

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
    SAMPLES_PER_WEEK,
    RawWeeks,
    Rejection,
    WeekId,
    WeeklySeries,
    add_weeks,
    aggregate_weekly,
    utc_minute,
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

T = TypeVar("T")

# The start of a raw line in a plain form: the id (bare, or quoted on one
# line), a comma, then the timestamp (bare or quoted) as 'YYYY-MM-DD', 'T'
# or a space, 'HH:MM', then ':00' (or ':00.000'), an offset, both or
# neither, its closing quote if it is quoted, and the comma before a bare
# value.
_PLAIN_RAW = re.compile(r'(?P<head>(?P<id>"(?:[^"\r\n]|"")*"|[^,"\r\n]*),(?P<q>"?)\d{4}-\d\d-\d\d[T ])'
                        r'(?P<clock>\d\d:\d\d)(?P<ending>(?::00(?:\.0+)?)?(?:Z|[+-]\d\d:?\d\d)?(?P=q),)(?!")',
                        re.ASCII)


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


@contextmanager
def _reading(path: Path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text, skipping a leading byte-order mark; a
    byte that is not UTF-8 is a data error naming the file, raised once for
    the whole block."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from exc


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
    """Check the header, then pass each non-blank record of the file's
    ``_Records`` to ``take``. A row of the wrong width, a ``ValueError``
    from ``take`` or a ``csv.Error`` names file and line."""
    taken = False
    with _reading(path) as fh:
        records, line_num = _header(path, fh, header)
        for line in fh:
            row, line_num = records(line, line_num)
            if row:
                _take_row(path, line_num, take, row, len(header))
                taken = True
    if not taken:
        raise DataError(f"{path}: no data")


class _Records:
    """The csv module's records of a file whose other lines its reader takes
    itself: ``records(line, line_num)`` gives the record that starts at
    ``line``, read on from the file while a quoted field spans lines, and
    ``line_num`` advanced past it as ``csv.reader.line_num`` counts. One
    ``csv.reader`` serves every call; a ``csv.Error`` names file and line."""

    def __init__(self, path: Path, fh: TextIO) -> None:
        self.path, self.fh = path, fh
        self.line: Optional[str] = None  # the line the next record starts at
        self.reader = csv.reader(self)

    def __iter__(self) -> "_Records":
        return self

    def __next__(self) -> str:  # the csv.reader's lines: the one given, then the file's
        line, self.line = self.line, None
        return next(self.fh) if line is None else line

    def __call__(self, line: str, line_num: int) -> tuple[list[str], int]:
        self.line = line
        before = self.reader.line_num - line_num
        try:
            return next(self.reader), self.reader.line_num - before
        except csv.Error as exc:
            raise DataError(f"{self.path}:{self.reader.line_num - before}: {exc}") from exc


def _header(path: Path, fh: TextIO, header: Sequence[str]) -> tuple[_Records, int]:
    """Check that ``fh`` starts with ``header``; return the file's records
    and the lines the header took."""
    records = _Records(path, fh)
    row, line_num = records(next(fh, ""), 0)
    if row != header:
        raise DataError(f"{path}: expected header {','.join(header)}")
    return records, line_num


def _take_row(path: Path, line_num: int, take: Callable[[list[str]], T], row: list[str], width: int) -> T:
    try:
        if len(row) != width:
            raise ValueError(f"expected {width} columns, got {len(row)}")
        return take(row)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too big for its buffer
        raise DataError(f"{path}:{line_num}: {exc}") from exc


# -- raw measurements -------------------------------------------------------

def read_raw_csv(path: Path, aggregate: Callable[[RawWeeks], float] = aggregate_weekly
                 ) -> list[tuple[str, Optional[WeekId], np.ndarray]]:
    """Read 10-minute measurements into one ``RawWeeks`` per series and
    return what each gives on ``close``, in file order. A naive timestamp is
    UTC, one with an offset is converted. Each series' rows must come in
    time order: only its current week is held, handed to ``aggregate`` once
    its next week begins. A malformed line raises at once; the first series
    with a sample off the grid, out of order or invalid raises at the end.

    A line on the date of its series' last row that went through the csv
    module, in that row's plain form (``sid,YYYY-MM-DDTHH:MM``, id and
    timestamp bare or quoted, ``T`` or a space, then the row's own seconds
    and offset, such as ``:00+00:00`` as ``write_raw_csv`` writes, ``:00``,
    ``.000Z``, ``+05:30`` or none, then a bare value), is read from its
    text, whether or not other series' rows came between: for a fixed date
    and offset, its minute is that row's day minute plus its time of day.
    A line's series is found by the text before its first comma, so an id
    with a comma is read so only right after its own rows. Every other line
    goes through the csv module, and a row in no plain form hands the rest
    of its date to it, with the same acceptance, errors and ``file:line``
    either way; so does a plain line that starts its series' next week, or
    one that comes when its week already holds ``SAMPLES_PER_WEEK`` samples,
    so that ``RawWeeks.add`` bounds every week."""
    series: dict[str, RawWeeks] = {}
    clock = {f"{h:02}:{m:02}": 60 * h + m for h in range(24) for m in range(60)}  # 'HH:MM' -> minute

    def take(row: list[str]) -> int:
        series_id, ts_text, value_text = row
        minute = utc_minute(datetime.fromisoformat(ts_text))
        weeks = series.get(series_id)
        if weeks is None:
            weeks = series[series_id] = RawWeeks(series_id, minute, aggregate)
        weeks.add(minute, float(value_text))
        return minute

    with _reading(path) as fh:
        records, line_num = _header(path, fh, RAW_HEADER)
        bulk = csv.reader(fh)
        limit = csv.field_size_limit()  # a longer field is the csv module's error
        # Each series' plain form, by its id as written: the id and
        # 'YYYY-MM-DDT' of its last row in a plain form (head), where the
        # clock key starts and ends, that day's UTC minute at 00:00, the
        # row's seconds and offset with the comma, where the value starts,
        # the appends to its week's buffers, the samples its week holds,
        # and the clock minute at which that date reaches the series' next
        # week.
        forms: dict[str, tuple] = {}
        no_form, no_clock = (None,) * 10, math.inf  # no_clock: never before the next week
        head = None
        for line in fh:
            if head is None or not line.startswith(head):  # another series or date
                head, start, mid, day, ending, stop, add_minute, add_value, held, cut = forms.get(
                    line[:line.find(",")], no_form)
                if head is not None and not line.startswith(head):
                    head = None
            # A line of head, a clock key before the next week, that row's
            # ending and a text float() accepts holds no other ',' or '"',
            # so the csv module would give the same three fields and take()
            # the same minute and value: take it without them, unless its
            # week is full.
            if head is not None and len(line) <= limit:
                minute = clock.get(line[start:mid], no_clock)
                if minute < cut and len(held) < SAMPLES_PER_WEEK and line.startswith(ending, mid):
                    try:
                        add_value(float(line[stop:]))
                    except ValueError:
                        pass
                    else:
                        add_minute(day + minute)
                        line_num += 1
                        continue
            row, line_num = records(line, line_num)
            if not row:
                continue
            taken = _take_row(path, line_num, take, row, len(RAW_HEADER))
            plain = _PLAIN_RAW.match(line)  # then the row's id and timestamp are its groups
            minute = clock.get(plain["clock"]) if plain else None
            if minute is not None:  # the lines that follow in its form are taken as above
                weeks, day = series[row[0]], taken - minute
                head, start, mid, day, ending, stop, add_minute, add_value, held, cut = forms[plain["id"]] = (
                    plain["head"], plain.start("clock"), plain.end("clock"), day, plain["ending"],
                    plain.end(), weeks.minutes.append, weeks.samples.append, weeks.samples, weeks.end - day)
                continue
            # Lines in no plain form come in runs: the csv module alone
            # parses the rows that follow on this row's date.
            date, before = row[1][:10], bulk.line_num - line_num
            try:
                for row in bulk:
                    line_num = bulk.line_num - before
                    if row:
                        _take_row(path, line_num, take, row, len(RAW_HEADER))
                        if not row[1].startswith(date):
                            break
            except csv.Error as exc:
                raise DataError(f"{path}:{bulk.line_num - before}: {exc}") from exc
    if not series:
        raise DataError(f"{path}: no data")
    try:
        return [weeks.close() for weeks in series.values()]
    except DataError as exc:  # a sample off the grid, out of order or invalid
        raise DataError(f"{path}: {exc}") from exc


def write_raw_csv(path: Path, series: Iterable[tuple[WeeklySeries, Sequence[int]]]) -> None:
    """Each weekly series, but for its missing weeks, as 10-minute samples
    of the week's value from Monday 00:00 UTC (the weekly 95th percentile of
    constant data is the value itself): the bytes the csv writer writes,
    each value with ``repr``, one ``write`` per week."""
    clock = [f"T{h:02}:{m:02}:00+00:00," for h in range(24) for m in range(0, 60, 10)]
    with _replacing(path) as fh:
        csv.writer(fh).writerow(RAW_HEADER)
        for s, missing in series:
            prefix, missing = _csv_fields(s.series_id, ""), set(missing)  # 'id,': a lone empty field is quoted
            monday = week_start(s.start_week)
            for w, value in enumerate(s.values.tolist()):
                if w not in missing:
                    days = [prefix + (monday + timedelta(weeks=w, days=d)).isoformat() for d in range(7)]
                    fh.write("".join([f"{day}{time}{value!r}\r\n" for day in days for time in clock]))


# -- weekly series ----------------------------------------------------------

def write_weekly_csv(path: Path, series: Iterable[WeeklySeries]) -> None:
    _write_csv(path, WEEKLY_HEADER, (
        (s.series_id, *add_weeks(s.start_week, i), value, int(filled))
        for s in series
        for i, (value, filled) in enumerate(zip(s.values, s.filled_flags))
    ))


def read_weekly_csv(path: Path) -> list[WeeklySeries]:
    """Weekly rows grouped by series, in file order, read into flat typed
    buffers; each series' weeks must be consecutive, checked once all rows parse."""
    columns: dict[str, tuple[array, array, array, bytearray]] = {}

    def take(row: list[str]) -> None:
        sid, year, week, value, filled = row
        if filled not in ("0", "1"):
            raise ValueError(f"filled must be 0 or 1, got {filled!r}")
        years, weeks, values, flags = columns.get(sid) or columns.setdefault(
            sid, (array("q"), array("q"), array("d"), bytearray()))
        years.append(int(year))
        weeks.append(int(week))
        values.append(float(value))
        flags.append(filled == "1")

    _read_csv(path, WEEKLY_HEADER, take)
    out = []
    for sid in list(columns):  # each series' week buffers are dropped once it is built
        years, weeks, values, flags = columns.pop(sid)
        ids = list(zip(years, weeks))
        try:  # a valid first week makes every consecutive one valid
            week_start(ids[0])
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}: {sid}: invalid ISO week {ids[0]}: {exc}") from exc
        for prev, cur in zip(ids, ids[1:]):
            try:
                following = add_weeks(prev, 1)
            except OverflowError:  # no week follows 9999-W52
                following = None
            if cur != following:
                raise DataError(f"{path}: {sid}: weeks not consecutive at {cur}")
        try:
            out.append(WeeklySeries(sid, ids[0], np.frombuffer(values), np.frombuffer(flags, dtype=bool)))
        except DataError as exc:  # a non-finite or negative value
            raise DataError(f"{path}: {exc}") from exc
    return out


def write_rejections_csv(path: Path, rejections: Iterable[Rejection]) -> None:
    _write_csv(path, REJECTIONS_HEADER, ((r.series_id, r.reason.value) for r in rejections))


# -- forecasts --------------------------------------------------------------

def _csv_fields(*fields) -> str:
    """``fields`` quoted and joined as the csv writer writes them, without
    the line end."""
    buf = StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[:-2]


def write_forecast_csv(path: Path, blocks: Iterable[ForecastBlock]) -> int:
    """The bytes ``_write_csv`` would write, one ``write`` per producer: the
    quoted ``series_id,producer`` prefix is formatted once per producer and
    each value with ``repr``, as the csv writer formats a float. ``blocks``
    is consumed one at a time; returns how many there were."""
    count = 0
    with _replacing(path) as fh:
        csv.writer(fh).writerow(FORECAST_HEADER)
        for count, block in enumerate(blocks, start=1):
            steps = [f",{h}," for h in range(1, block.values.shape[1] + 1)]
            for producer, row in zip(block.producers, block.values):
                prefix = _csv_fields(block.series_id, producer)
                lines = [f"{prefix}{step}{value!r}\r\n" for step, value in zip(steps, row.tolist())]
                fh.write("".join(lines))
    return count


def iter_forecast_csv(path: Path) -> Generator[ForecastBlock, None, None]:
    """One block per series, series and producers in file order, from a
    table in the order every stage writes it: each series' rows together,
    each producer's steps 1..H in turn, and every producer of a series with
    the first one's H. A series or a producer that resumes after others, or
    a step out of order, is an error at its line; a label that looks like an
    ensemble's must name one. Each block is yielded as its series' rows end,
    so only one series' values are held, in a flat ``array('d')``; an error
    in a later series surfaces after the earlier blocks were yielded."""
    done: set[str] = set()  # the series already read
    sid: Optional[str] = None
    producers: list[str] = []  # sid's, in file order
    seen: set[str] = set()  # the same producers
    values = array("d")  # sid's values, producer by producer
    step = 0  # the last step of producers[-1]
    horizon = 0  # the first producer's H once its rows end

    def end_producer() -> None:
        nonlocal horizon
        if not horizon:
            horizon = step
        elif step != horizon:
            raise DataError(f"{path}: {sid}: {producers[-1]} has {step} steps, "
                            f"{producers[0]} has {horizon}")

    def end_series() -> ForecastBlock:
        end_producer()
        done.add(sid)
        try:
            return ForecastBlock(sid, producers, np.frombuffer(values).reshape(-1, horizon))
        except DataError as exc:  # a non-finite value, found once per block
            raise DataError(f"{path}: {exc}") from exc

    def take(row: list[str]) -> Optional[ForecastBlock]:
        nonlocal sid, producers, seen, values, step, horizon
        row_sid, producer, h, value = row
        row_step, number = int(h), float(value)
        ended = None
        if row_sid != sid:
            if sid is not None:
                ended = end_series()
            if row_sid in done:
                raise ValueError(f"series {row_sid} resumes after other series")
            sid, producers, seen, values, horizon = row_sid, [], set(), array("d"), 0
        if not producers or producer != producers[-1]:
            if producers:
                end_producer()
            if producer in seen:
                raise ValueError(f"({sid}, {producer}) resumes after other producers")
            try:
                parse_producer(producer)
            except ConfigError as exc:
                raise ValueError(str(exc)) from exc
            producers.append(producer)
            seen.add(producer)
            step = 0
        if row_step != step + 1:
            if 1 <= row_step <= step:
                raise ValueError(f"duplicate row for ({sid}, {producer}, h={row_step})")
            raise ValueError(f"({sid}, {producer}): steps must run 1..H in order, "
                             f"got {row_step} after {step}")
        values.append(number)
        step = row_step
        return ended

    with _reading(path) as fh:
        records, line_num = _header(path, fh, FORECAST_HEADER)
        head: Optional[str] = None  # 'sid,producer,' of the last row taken, if both are plain
        next_h = ""  # the h that row's producer takes next
        limit = csv.field_size_limit()  # a longer field is the csv module's error
        for line in fh:
            # A line of head, next_h, ',' and a text float() accepts holds no
            # other ',' or '"', so the csv module would give the same four
            # fields and take() the same value: take it without them.
            if head and len(line) <= limit and line.startswith(head):
                h, _, text = line[len(head):].partition(",")
                if h == next_h:
                    try:
                        values.append(float(text))
                    except ValueError:
                        pass
                    else:
                        step += 1
                        next_h = str(step + 1)
                        line_num += 1
                        continue
            row, line_num = records(line, line_num)
            if row:
                ended = _take_row(path, line_num, take, row, len(FORECAST_HEADER))
                if ended is not None:
                    yield ended
                head = f"{sid},{producers[-1]},"
                if head.count(",") != 2 or any(c in head for c in '"\r\n'):
                    head = None
                next_h = str(step + 1)
    if sid is None:
        raise DataError(f"{path}: no data")
    yield end_series()


def read_forecast_csv(path: Path) -> list[ForecastBlock]:
    """Every block of ``iter_forecast_csv``, read to the end of the file."""
    return list(iter_forecast_csv(path))


# -- leaderboards and analyses ------------------------------------------------

def write_leaderboard_csv(path: Path, leaderboard: Leaderboard) -> None:
    _write_csv(path, LEADERBOARD_HEADER, (
        (position, r.producer, r.mean_mae, r.mean_smape, r.mean_rank, r.benchmark_ratio)
        for position, r in enumerate(leaderboard.rows, start=1)
    ))


def read_leaderboard_csv(path: Path) -> Leaderboard:
    """The rows of a leaderboard table; a producer named twice is an error at its line."""
    rows: dict[str, LeaderboardRow] = {}

    def take(row: list[str]) -> None:
        if row[1] in rows:
            raise ValueError(f"producer {row[1]!r} named twice")
        rows[row[1]] = LeaderboardRow(row[1], *map(float, row[2:]))

    _read_csv(path, LEADERBOARD_HEADER, take)
    return Leaderboard(rows=list(rows.values()), n_series=0)


def write_size_aggregates_csv(path: Path, aggregates: Sequence[SizeAggregate]) -> None:
    _write_csv(path, SIZE_AGGREGATES_HEADER, (
        (a.size, a.count, a.mean, a.q25, a.median, a.q75, a.min, a.max) for a in aggregates
    ))


def write_composition_csv(path: Path, report: CompositionReport) -> None:
    _write_csv(path, COMPOSITION_HEADER, [
        ("meta", "top_n", report.top_n),
        *(("model_share", model, share) for model, share in report.model_share.items()),
        *(("size_count", size, count) for size, count in report.size_histogram.items()),
        *(("method_count", method, count) for method, count in report.method_histogram.items()),
    ])


def write_comparison_csv(path: Path, report: ComparisonReport) -> None:
    _write_csv(path, COMPARISON_HEADER, zip(
        report.series_ids, report.individual_smape, report.ensemble_smape,
        report.relative_improvement,
    ))


def write_ecdf_csv(path: Path, report: ComparisonReport) -> None:
    _write_csv(path, ECDF_HEADER, zip(*report.ecdf()))


# -- planning levels --------------------------------------------------------

def load_planning_levels(path: Path) -> dict[tuple[str, str], PlanningLevel]:
    """INI file with one ``[parameter@voltage]`` section per pair and a
    numeric ``level`` entry."""
    parser = configparser.ConfigParser()
    try:  # a duplicate section or key, a key before any section, a line that is no key
        read = parser.read(str(path), encoding="utf-8-sig")  # a leading byte-order mark is skipped
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: cannot read planning levels")
    levels = {}
    for section in parser.sections():
        if "@" not in section:
            raise ConfigError(f"{path}: section [{section}] is not parameter@voltage")
        parameter, _, voltage = section.partition("@")
        try:
            level = parser.getfloat(section, "level")
        except (configparser.Error, ValueError) as exc:  # no 'level', or an interpolation error
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
