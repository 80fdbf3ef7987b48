"""File formats: the nine CSV tables, planning levels and the run manifest.

Every CSV table but the raw and forecast tables is written by one writer,
``_write_csv``, and the two of them a stage reads back, the weekly table
and the leaderboard, by one reader, ``_read_csv``; each table has one
header constant. Every reader takes its header, and every reader but the
raw one its records, from ``_Records`` and its one ``csv.reader``. The
csv module writes floats (numpy's float64 included) with ``repr``, the
shortest round-trip form, so outputs are byte-stable across runs, which
the determinism guarantees rely on. The raw and forecast writers format
their lines themselves, one ``write`` per 1,008 rows or per producer, in
the same dialect: ids and labels quoted by the csv module, values with
``repr``, ``\r\n`` line ends. The raw reader parses chunks of 64 Ki
characters in one plain form with numpy and ``float()`` alone and hands
any other chunk whole to one ``csv.reader``. The forecast reader takes a
line in the plain form of the row before it that continues that row's
series from its text and every other line from ``_Records``. Each reader
gives the same acceptance, errors and ``file:line`` on each of its paths.
The raw table is read into one calendar week per series at a time, each
sample through ``weekly.RawWeeks.extend``, and written from weekly
series, a week at a time.
The forecast table travels as one ``ForecastBlock`` per series, a
(producers x horizon) matrix: ``write_forecast_csv`` and
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
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta
from io import StringIO
from itertools import chain
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

# A first line that a chunk in a plain form starts with, once its quotes
# are dropped: a chunk that starts otherwise goes to the csv module.
_PLAIN_START = re.compile(r'[^,"\r\n]*,\d{4}-\d\d-\d\d[T ]\d\d:\d\d[^,"\r\n]*,[^,"\r\n]*\r?\n', re.ASCII)
# Characters of whole lines that the raw reader reads at a time. Its peak
# grows with them: reading perfbench preprocess_raw's 20.9 MB file took
# VmHWM 0.9 MB above reading it line by line at 64 Ki, and 3.9 MB at 256 Ki.
_CHUNK = 1 << 16
# A timestamp's first 16 characters, 'YYYY-MM-DDTHH:MM' ('T' or a space):
# the least and the greatest byte each may be, and the weight of each digit
# in the date as YYYYMMDD and in the minute of the day.
_STAMP_LEAST = np.frombuffer(b"0000-00-00 00:00", np.uint8)
_STAMP_GREATEST = np.frombuffer(b"9999-99-99T29:59", np.uint8)
_STAMP_WEIGHTS = np.array([[10**7, 10**6, 10**5, 10**4, 0, 1000, 100, 0, 10, 1, 0, 0, 0, 0, 0, 0],
                           [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 600, 60, 0, 10, 1]]).T


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
    ``line``, read on from ``fh`` while a quoted field spans lines, and
    ``line_num`` advanced past it as ``csv.reader.line_num`` counts. One
    ``csv.reader`` serves every call; a ``csv.Error`` names file and line."""

    def __init__(self, path: Path, fh: TextIO) -> None:
        self.path, self.fh = path, fh
        self.line: Optional[str] = None  # the line the next record starts at
        self.reader = csv.reader(self)

    def __iter__(self) -> "_Records":
        return self

    def __next__(self) -> str:  # the csv.reader's lines: the one given, then those of fh
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

    The file is read in chunks of whole lines of at most ``_CHUNK`` (64 Ki)
    characters, and every chunk takes one of two paths, with the same
    acceptance, errors and ``file:line`` on each:

    1. A chunk with one line end throughout (``\\n`` or ``\\r\\n``), two
       commas on every line, quotes only around whole fields on one line
       (no ``,`` or ``""`` inside them), every timestamp ``YYYY-MM-DDTHH:MM``
       (``T`` or a space) and one text after the minute per series
       (``:00+00:00`` as ``write_raw_csv`` writes, ``:00`` as perfbench
       writes, ``.000Z``, ``+05:30``, none, ...), ids beyond ASCII too, is
       parsed in one pass (``_plain_rows``).
    2. Any other chunk goes row by row through one ``csv.reader`` over its
       lines (``_csv_rows``). The reader reads on past the chunk while a
       quoted record runs on, and the next chunk starts after it. A chunk
       holding an id that the writer quotes for its ``,`` or ``"`` takes
       this path whole, so a table of such ids grouped by series, read
       almost wholly by the csv module, is the slowest form.

    Either path hands each series' rows of a chunk to its ``RawWeeks`` in
    one ``extend``. Beyond one week per series, one chunk and its parsed
    rows are held, and for a chunk with quotes its text without them.
    Chunks decode the file further ahead than lines do, so a file with a
    byte that is not UTF-8 is read again by the csv path in batches of
    about a chunk's lines. Its text layer decodes in blocks of about
    8 KiB: a malformed line is the error reported if it ends in an
    earlier block than the byte, and the byte otherwise."""
    try:
        return _read_raw_csv(path, aggregate, _CHUNK)
    except DataError as exc:
        if not isinstance(exc.__cause__, UnicodeDecodeError):
            raise
    return _read_raw_csv(path, aggregate, 0)


def _read_raw_csv(path: Path, aggregate: Callable[[RawWeeks], float], chunk: int
                  ) -> list[tuple[str, Optional[WeekId], np.ndarray]]:
    """``read_raw_csv`` in chunks of at most ``chunk`` characters, or line
    by line throughout for 0."""
    series: dict[str, RawWeeks] = {}
    with _reading(path) as fh:
        _, line_num = _header(path, fh, RAW_HEADER)
        limit = csv.field_size_limit()  # a longer field is the csv module's error
        carry = ""  # the start of the line after the last chunk
        while True:
            if chunk:
                block = carry + fh.read(chunk - len(carry))
                if not block:
                    break
                whole = block.rfind("\n") + 1
                block, carry = block[:whole], block[whole:]  # whole lines, the start of the next
                rows = _plain_rows(block, limit) if block else None
                if rows is None:
                    lines = _lines(block + carry + fh.readline() if carry else block)
                    carry = ""
                    rows, read = _csv_rows(path, line_num, chain(lines, fh), len(lines))
                else:
                    read = sum(len(minutes) for _, minutes, _ in rows)
            else:  # batches of about a chunk's lines
                rows, read = _csv_rows(path, line_num, fh, _CHUNK // 64)
                if not read:
                    break
            for series_id, minutes, values in rows:
                weeks = series.get(series_id)
                if weeks is None:
                    weeks = series[series_id] = RawWeeks(series_id, int(minutes[0]), aggregate)
                weeks.extend(minutes, values)
            line_num += read
            rows = minutes = values = None  # not held through the next read
    if not series:
        raise DataError(f"{path}: no data")
    try:
        return [weeks.close() for weeks in series.values()]
    except DataError as exc:  # a sample off the grid, out of order or invalid
        raise DataError(f"{path}: {exc}") from exc


def _csv_rows(path: Path, line_num: int, lines: Iterable[str], stop: int
              ) -> tuple[list[tuple[str, np.ndarray, np.ndarray]], int]:
    """One ``csv.reader``'s rows of ``lines``, the raw table's lines after
    its ``line_num``-th, in ``_plain_rows``' form, and the lines it read:
    up to ``stop``, and on while a quoted record runs on, so none is read
    twice. A malformed line raises, naming file and line."""
    gathered: dict[str, tuple[array, array]] = {}
    bulk = csv.reader(lines)
    try:
        for row in bulk:
            if row:
                series_id, minute, value = _take_row(path, line_num + bulk.line_num, _raw_row, row, len(RAW_HEADER))
                got = gathered.get(series_id)
                if got is None:
                    got = gathered[series_id] = (array("q"), array("d"))
                got[0].append(minute)
                got[1].append(value)
            if bulk.line_num >= stop:
                break
    except csv.Error as exc:
        raise DataError(f"{path}:{line_num + bulk.line_num}: {exc}") from exc
    return [(series_id, np.frombuffer(minutes, np.int64), np.frombuffer(values, np.float64))
            for series_id, (minutes, values) in gathered.items()], bulk.line_num


def _raw_row(row: list[str]) -> tuple[str, int, float]:
    series_id, ts_text, value_text = row
    return series_id, utc_minute(datetime.fromisoformat(ts_text)), float(value_text)


def _plain_rows(text: str, limit: int) -> Optional[list[tuple[str, np.ndarray, np.ndarray]]]:
    """The rows of ``text``, whole lines of a raw table, as one (id, int64
    minutes, float64 values) per series in order of first appearance, if
    the csv module and ``_raw_row`` would give each line's id, minute and
    value the same way; None if any line might be read otherwise.

    Such a chunk has one line end throughout and two commas on every line,
    each line counted on its own, and is no longer than ``limit`` without
    its quotes. Its ``"`` pair up: each odd one opens a field, at a line's
    start or after a comma, and the next one closes it with no comma,
    ``\\n`` or ``\\r`` between (a ``\\r`` ends a line for the csv module).
    The csv module's fields are then the text without its quotes, as it
    keeps what follows a closing quote in the field. Each timestamp starts
    'YYYY-MM-DD', 'T' or a space, 'HH:MM' of a valid time of day, then the
    same text on every line of its series; ``datetime.fromisoformat``
    parses the first timestamp of each run of a series' lines on one date,
    and the others' minutes differ from it by their time of day alone. Each
    value is ``float()`` of its text. The text is UTF-8: no byte of a
    character beyond ASCII is a ``,``, ``"``, ``\\r`` or ``\\n``, so byte
    offsets find the fields, and ``str.split`` gives their texts."""
    u = np.frombuffer(text.encode("utf-8"), np.uint8)
    if '"' in text:
        quotes = np.flatnonzero(u == 34)
        edges = (u == 44) | (u == 10)  # ',' and '\n', after which a field starts (at 0: after u[-1], a '\n')
        before = np.searchsorted(np.flatnonzero(edges | (u == 13)), quotes)  # the ',' and line ends before each
        if len(quotes) % 2 or not edges[quotes[0::2] - 1].all() or (before[0::2] != before[1::2]).any():
            return None
        text, u = text.replace('"', ""), u[u != 34]
    if len(text) > limit or not _PLAIN_START.match(text):
        return None
    ends, commas = np.flatnonzero(u == 10), np.flatnonzero(u == 44)
    n = len(ends)
    crlf = "\r" in text
    if crlf and (np.count_nonzero(u == 13) != n or (u[ends - 1] != 13).any()):
        return None
    # every line's two commas between its start and its end
    if len(commas) != 2 * n or (commas[1::2] > ends).any() or (commas[2::2] < ends[:-1]).any():
        return None
    starts, stops = commas[0::2] + 1, commas[1::2]  # each timestamp's
    if (stops - starts < 16).any():
        return None
    stamps = _windows(u, 16)[starts]
    separators = stamps[:, 10]
    if ((stamps < _STAMP_LEAST).any() or (stamps > _STAMP_GREATEST).any()
            or ((separators != 84) & (separators != 32)).any()):  # 'T', ' '
        return None
    dates, clock = ((stamps - 48) @ _STAMP_WEIGHTS).T  # '0' is 48; other bytes weigh 0
    if clock.max() >= 1440:  # an hour past 23
        return None
    # each line's three fields, and for '\r\n' an empty one (one-character
    # replaces are the fast ones)
    width = 4 if crlf else 3
    fields = (text.replace("\r", ",") if crlf else text).replace("\n", ",").split(",")
    try:
        values = np.fromiter(map(float, fields[2::width]), np.float64, n)
    except ValueError:
        return None
    ids = fields[0:width * n:width]
    if ids.count(ids[0]) == n:
        order, codes = {ids[0]: 0}, None
    else:
        order = {series_id: k for k, series_id in enumerate(dict.fromkeys(ids))}
        codes = np.fromiter(map(order.__getitem__, ids), np.intp, n)
    rows = []
    for k, series_id in enumerate(order):
        at = np.arange(n) if codes is None else np.flatnonzero(codes == k)
        lengths = stops[at] - starts[at]
        first = starts[at[0]]
        if (lengths != lengths[0]).any() or lengths[0] > 16 and (
                _windows(u, lengths[0] - 16)[starts[at] + 16] != u[first + 16:first + lengths[0]]).any():
            return None  # not one ending
        on = dates[at]
        runs = [0, *(np.flatnonzero(on[1:] != on[:-1]) + 1).tolist()]  # each run of one date's first line
        try:
            days = [utc_minute(datetime.fromisoformat(fields[width * i + 1])) - int(clock[i])
                    for i in at[runs].tolist()]
        except (ValueError, OverflowError):
            return None
        lines = [hi - lo for lo, hi in zip(runs, [*runs[1:], len(at)])]
        rows.append((series_id, np.repeat(days, lines) + clock[at], values[at]))
    return rows


def _lines(text: str) -> list[str]:
    """The lines of ``text``, split as a file opened with ``newline=""``
    splits them: by ``str.splitlines`` (faster than a ``StringIO``) when
    ``text`` holds none of the other characters it ends a line at."""
    if text.isascii() and not any(c in text for c in "\v\f\x1c\x1d\x1e"):
        return text.splitlines(keepends=True)
    return StringIO(text, newline="").readlines()


def _windows(u: np.ndarray, width: int) -> np.ndarray:
    """Each run of ``width`` bytes of ``u`` by where it starts, as one view
    (numpy's ``sliding_window_view`` keeps 53 B per call)."""
    return np.ndarray((len(u) - width + 1, width), np.uint8, u, strides=(1, 1))


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
