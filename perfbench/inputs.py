"""Seeded input generators for the three benchmark workloads.

Nothing here imports ``pqforecast``: the inputs, and the plan the output
checks compare against, depend only on the seed and on this file, so a
change to the program cannot change what the benchmark feeds it.

The structure of each corpus (how many series of each kind, where level
shifts and gaps sit) is fixed; the seed draws the parameters and noise
inside it. That keeps the work per run, and the accuracy figures, steady
across seeds while every seed still gives new numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

MODELS = ("SNaive", "HW", "SARIMA", "Prophet", "STL-Drift", "STL-ES", "STL-Holt", "STL-ARIMA")
PERIOD = 52
TRAIN = 105
HORIZON = 52
WEEKS = TRAIN + HORIZON
START_WEEK = (2019, 1)

FORECAST_SERIES = 8
ENSEMBLE_SERIES = 12
RAW_WEEKS = 60
SAMPLES_PER_WEEK = 1008
MIN_SAMPLES = 958  # ceil(0.95 * 1008)
RAW_START = datetime(2021, 1, 4)  # a Monday, ISO week (2021, 1)

SIZE_LETTERS = "BCDEFGH"
METHODS = ("mean", "median", "smape", "rank")

# (parameter, voltage, planning level in native units); no level is 100,
# so a missing normalisation step shows in the checked values
PLANNING_LEVELS = (("U05", "110", 2.0), ("UNB", "220", 1.4), ("Uthd", "330", 3.0), ("Uplt", "380", 0.8))


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def week_ids(start: tuple[int, int], n: int) -> list[tuple[int, int]]:
    monday = date.fromisocalendar(start[0], start[1], 1)
    return [tuple((monday + timedelta(weeks=i)).isocalendar())[:2] for i in range(n)]


def write_weekly_csv(path: Path, series: dict[str, np.ndarray]) -> int:
    """Weekly CSV in the program's input format; returns the byte count."""
    weeks = week_ids(START_WEEK, WEEKS)
    lines = ["series_id,iso_year,iso_week,utilization_percent,filled"]
    for sid, values in series.items():
        lines.extend(f"{sid},{y},{w},{v!r},0" for (y, w), v in zip(weeks, values.tolist()))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text)


def write_forecast_csv(path: Path, forecasts: dict[tuple[str, str], np.ndarray]) -> int:
    lines = ["series_id,producer,h,value"]
    for (sid, producer), values in forecasts.items():
        lines.extend(f"{sid},{producer},{h},{v!r}" for h, v in enumerate(values.tolist(), start=1))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text)


def _ar1(rng: np.random.Generator, n: int, phi: float, sd: float) -> np.ndarray:
    shocks = rng.normal(scale=sd * np.sqrt(1.0 - phi * phi), size=n)
    out = np.empty(n)
    out[0] = rng.normal(scale=sd)
    for i in range(1, n):
        out[i] = phi * out[i - 1] + shocks[i]
    return out


def _yearly_pattern(rng: np.random.Generator, harmonics: bool) -> np.ndarray:
    """Unit-peak yearly cycle: a sine, or three harmonics of amplitude 1/k
    with random phases."""
    t = np.arange(PERIOD) / PERIOD
    if not harmonics:
        return np.sin(2 * np.pi * (t + rng.random()))
    pattern = sum(np.sin(2 * np.pi * (k * t + rng.random())) / k for k in (1, 2, 3))
    return pattern / np.max(np.abs(pattern))


# -- forecast_corpus -----------------------------------------------------------

@dataclass
class ForecastCorpus:
    actuals: dict[str, np.ndarray]  # 157 weeks per series
    weakly_seasonal: list[str]
    files: dict[str, Path] = field(default_factory=dict)
    bytes: int = 0

    @property
    def size(self) -> dict:
        return {"series": len(self.actuals), "rows": len(self.actuals) * WEEKS, "bytes": self.bytes}


def forecast_series(seed: int, n: int, stream: int) -> tuple[dict[str, np.ndarray], list[str]]:
    """Weekly series with trend, yearly seasonality, AR(1) noise, and two
    spikes, one level shift and one slope change inside the training
    window. Level, noise, amplitude and the events follow the series index;
    the seed draws the seasonal phases, small level and trend offsets, the
    spike weeks and the noise.

    Every fourth series has a seasonal amplitude far below its noise, so
    SARIMA's seasonal-strength test sends it down the D=0 path; the others
    take D=1.
    """
    series: dict[str, np.ndarray] = {}
    weak: list[str] = []
    t = np.arange(WEEKS, dtype=float)
    for i in range(n):
        rng = rng_for(seed, stream, i)
        parameter, voltage, _ = PLANNING_LEVELS[i % len(PLANNING_LEVELS)]
        sid = f"S{i:04d}:{parameter}:{voltage}"
        weakly = i % 4 == 3
        noise_sd = 0.8 + 0.15 * (i % 5)
        amplitude = 0.3 * noise_sd if weakly else 8.0 + i % 3
        level = 40.0 + float(rng.uniform(-2.0, 2.0)) + (0.02 + float(rng.uniform(-0.005, 0.005))) * t
        slope_week = 50 + 6 * i % 42
        sign = 1.0 if i % 2 else -1.0
        level[slope_week:] += sign * 0.02 * (t[slope_week:] - slope_week)
        shift_week = 40 + 7 * i % 49
        level[shift_week:] -= sign * 5.0
        pattern = _yearly_pattern(rng, harmonics=i % 2 == 1)
        values = level + amplitude * pattern[np.arange(WEEKS) % PERIOD]
        values += _ar1(rng, WEEKS, 0.3 + 0.1 * (i % 3), noise_sd)
        values[rng.choice(TRAIN, size=2, replace=False)] += 4.0 * noise_sd
        series[sid] = np.maximum(values, 0.5)
        if weakly:
            weak.append(sid)
    return series, weak


def make_forecast_corpus(seed: int, workdir: Path) -> ForecastCorpus:
    actuals, weak = forecast_series(seed, FORECAST_SERIES, stream=1)
    corpus = ForecastCorpus(actuals=actuals, weakly_seasonal=weak)
    corpus.files["weekly"] = workdir / "weekly.csv"
    corpus.bytes = write_weekly_csv(corpus.files["weekly"], actuals)
    return corpus


# -- ensemble_wide -------------------------------------------------------------

# Per member: (relative bias, phase error in weeks, noise in units of the
# series noise). Distinct profiles keep the ranks apart and ties rare.
MEMBER_PROFILES = {
    "SNaive": (0.00, 0, 1.6),
    "HW": (0.04, 1, 1.0),
    "SARIMA": (-0.03, 0, 0.9),
    "Prophet": (0.02, 2, 0.85),
    "STL-Drift": (0.06, 0, 0.75),
    "STL-ES": (-0.02, -1, 0.7),
    "STL-Holt": (0.05, 1, 0.8),
    "STL-ARIMA": (-0.01, 0, 0.65),
}


@dataclass
class EnsembleCorpus:
    actuals: dict[str, np.ndarray]
    members: dict[tuple[str, str], np.ndarray]  # (series, model) -> 52 values
    files: dict[str, Path] = field(default_factory=dict)
    bytes: int = 0

    @property
    def size(self) -> dict:
        rows = len(self.actuals) * WEEKS + len(self.members) * HORIZON
        return {"series": len(self.actuals), "rows": rows, "bytes": self.bytes}


def make_ensemble_corpus(seed: int, workdir: Path) -> EnsembleCorpus:
    """Actuals plus eight synthetic member forecasts per series.

    A member forecast is the noise-free signal of the test window, shifted
    by the member's phase error, scaled by its bias and overlaid with its
    own AR(1) noise; the members' noises are independent, so averaging
    them helps and ensembles usually beat the best member.
    """
    actuals: dict[str, np.ndarray] = {}
    members: dict[tuple[str, str], np.ndarray] = {}
    t = np.arange(-2, WEEKS + 2, dtype=float)  # two weeks of slack for phase errors
    for i in range(ENSEMBLE_SERIES):
        rng = rng_for(seed, 2, i)
        parameter, voltage, _ = PLANNING_LEVELS[i % len(PLANNING_LEVELS)]
        sid = f"E{i:04d}:{parameter}:{voltage}"
        noise_sd = 1.0 + 0.1 * (i % 6)
        pattern = _yearly_pattern(rng, harmonics=i % 2 == 1)
        signal = (45.0 + float(rng.uniform(-2.0, 2.0)) + float(rng.uniform(0.0, 0.02)) * t
                  + float(rng.uniform(6.5, 8.5)) * pattern[np.arange(len(t)) % PERIOD])
        actual = signal[2 : WEEKS + 2] + _ar1(rng, WEEKS, 0.4, noise_sd)
        actuals[sid] = np.maximum(actual, 0.5)
        for model, (bias, phase, noise) in MEMBER_PROFILES.items():
            idx = np.arange(TRAIN, WEEKS) + 2 + phase
            scale = 1.0 + bias + float(rng.normal(scale=0.02))
            values = scale * signal[idx] + _ar1(rng, HORIZON, 0.5, noise * noise_sd)
            members[(sid, model)] = np.maximum(values, 0.1)
    corpus = EnsembleCorpus(actuals=actuals, members=members)
    corpus.files["weekly"] = workdir / "weekly.csv"
    corpus.files["forecasts"] = workdir / "forecasts.csv"
    corpus.bytes = (write_weekly_csv(corpus.files["weekly"], actuals)
                    + write_forecast_csv(corpus.files["forecasts"], members))
    return corpus


def ensemble_configs() -> list[tuple[str, tuple[str, ...]]]:
    """All 247 configurations as (name, members), named B01..H01 by size
    letter and 1-based index in lexicographic order of member indices."""
    out = []
    for size in range(2, len(MODELS) + 1):
        for index, members in enumerate(itertools.combinations(MODELS, size), start=1):
            out.append((f"{SIZE_LETTERS[size - 2]}{index:02d}", members))
    return out


# -- preprocess_raw ------------------------------------------------------------

@dataclass
class RawPlan:
    """What preprocessing must make of one raw series."""

    series_id: str
    level: float
    missing: list[int]  # weeks with fewer than MIN_SAMPLES samples
    reason: str | None  # None when accepted
    kept: list[np.ndarray]  # retained samples per week, native units
    truth_p95: np.ndarray  # p95 of all 1008 planned samples per week, native units


@dataclass
class RawCorpus:
    plans: list[RawPlan]
    files: dict[str, Path] = field(default_factory=dict)
    bytes: int = 0
    rows: int = 0

    @property
    def size(self) -> dict:
        return {"series": len(self.plans), "rows": self.rows, "bytes": self.bytes}


# Missing weeks of each kind of series and the expected rejection reason.
# Runs of at most 10 weeks are filled; an 11-week run, or a gap in the first
# week, cannot be; 13 missing weeks of 60 exceed the 20 % limit. The weeks
# are fixed, so the fill error, and with it the accuracy figure, does not
# hinge on where a seed happens to put a gap.
RAW_KINDS = (
    ([], None),
    ([], None),
    ([12, 13, 33, 34, 35, 36], None),
    ([*range(20, 30), 45], None),
    ([*range(25, 36)], "unfillable-gap"),
    ([8, 9, 10, 18, 19, 20, 28, 29, 30, 40, 41, 50, 51], "too-many-gaps"),
    ([0, 30, 31], "unfillable-gap"),
)


def make_raw_corpus(seed: int, workdir: Path) -> RawCorpus:
    """Raw 10-minute measurements with a daily profile, weekly growth and noise.

    Valid weeks lose up to 40 random samples and stay above the 95 %
    availability rule; a missing week keeps 0 to 900 samples. The first
    sample of every series sits on Monday 00:00 and the last on Sunday
    23:50, so every planned week is a full calendar week of the span.
    """
    slots = np.arange(SAMPLES_PER_WEEK)
    day_phase = 2 * np.pi * (slots % 144) / 144
    stamps = [(RAW_START + timedelta(minutes=10 * k)).isoformat() for k in range(SAMPLES_PER_WEEK * RAW_WEEKS)]
    plans: list[RawPlan] = []
    lines = ["series_id,timestamp_iso8601,value"]
    order = rng_for(seed, 3).permutation(len(RAW_KINDS))
    for i, kind in enumerate(order):
        missing, reason = RAW_KINDS[kind]
        rng = rng_for(seed, 4, i)
        parameter, voltage, level = PLANNING_LEVELS[i % len(PLANNING_LEVELS)]
        sid = f"R{i:04d}:{parameter}:{voltage}"
        base = level * float(rng.uniform(0.3, 0.7))
        day_shift = rng.uniform(0, 2 * np.pi)
        kept: list[np.ndarray] = []
        truth = np.empty(RAW_WEEKS)
        for w in range(RAW_WEEKS):
            # 0.5 % growth per week, so a carried-forward week is off by a
            # known share and the fill error does not hinge on the noise
            profile = base * (1.0 + 0.005 * w) * (1.0 + 0.25 * np.sin(day_phase - day_shift))
            values = np.abs(profile + rng.normal(scale=0.01 * base, size=SAMPLES_PER_WEEK))
            truth[w] = np.percentile(values, 95)
            if w in missing:
                keep = np.sort(rng.choice(SAMPLES_PER_WEEK, size=int(rng.integers(0, 901)), replace=False))
            else:
                drop = rng.choice(SAMPLES_PER_WEEK, size=int(rng.integers(0, 41)), replace=False)
                keep = np.setdiff1d(slots, drop)
            if w in (0, RAW_WEEKS - 1):  # pin the span to whole weeks
                keep = np.union1d(keep, [0] if w == 0 else [SAMPLES_PER_WEEK - 1])
            kept.append(values[keep])
            base_k = w * SAMPLES_PER_WEEK
            lines.extend(f"{sid},{stamps[base_k + k]},{v!r}" for k, v in zip(keep.tolist(), values[keep].tolist()))
        plans.append(RawPlan(series_id=sid, level=level, missing=list(missing), reason=reason,
                             kept=kept, truth_p95=truth))
    corpus = RawCorpus(plans=plans, rows=len(lines) - 1)
    corpus.files["raw"] = workdir / "raw.csv"
    corpus.files["levels"] = workdir / "planning_levels.ini"
    text = "\n".join(lines) + "\n"
    corpus.files["raw"].write_text(text, encoding="utf-8")
    ini = "".join(f"[{p}@{v}]\nlevel = {lvl!r}\n\n" for p, v, lvl in PLANNING_LEVELS)
    corpus.files["levels"].write_text(ini, encoding="utf-8")
    corpus.bytes = len(text) + len(ini)
    return corpus
