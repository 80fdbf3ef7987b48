"""Seeded synthetic corpora standing in for proprietary measurement data.

Each generated series is a weekly utilization curve: base level, linear
trend, a smooth periodic yearly pattern (sinusoid or random harmonics),
Gaussian noise and occasional upward spikes. The generating components are
persisted as ground truth so tests can compare forecasts against the known
signal. Identical seeds yield identical corpora.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .io import write_text
from .weekly import WeekId, WeeklySeries

PARAMETERS = ("UNB", "Uthd", "U03", "U05", "U07", "U09", "U11", "U13", "U15", "Uplt")
VOLTAGE_LEVELS = ("110", "220", "330", "380")


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for corpus generation; ranges are sampled per series.

    Besides base, trend, seasonality, noise and outliers, series can carry
    structural events (level shifts, slope changes) and slow amplitude
    drift: measured utilization rarely follows one clean regime for three
    years, and a corpus without such events makes single regression-style
    models look unrealistically strong.
    """

    n_series: int
    length_weeks: int = 157
    base_range: tuple[float, float] = (20.0, 70.0)
    trend_range: tuple[float, float] = (-0.03, 0.08)  # percent points per week
    amplitude_range: tuple[float, float] = (1.0, 12.0)
    noise_sd_range: tuple[float, float] = (0.4, 3.0)
    noise_ar_range: tuple[float, float] = (0.0, 0.8)  # lag-1 autocorrelation
    outlier_rate_range: tuple[float, float] = (0.0, 0.04)
    level_shift_prob: float = 0.35
    level_shift_range: tuple[float, float] = (-12.0, 15.0)
    slope_change_prob: float = 0.35
    amplitude_drift_range: tuple[float, float] = (-0.3, 0.3)  # relative, over full span
    missing_rate: float = 0.0
    start_week: WeekId = (2019, 1)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_series < 1 or self.length_weeks < 1:
            raise ConfigError("synthetic spec: dimensions must be positive")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError("synthetic spec: missing rate must be in [0, 1)")


@dataclass
class SeriesTruth:
    """Generating components of one synthetic series."""

    series_id: str
    base: float
    trend: float
    amplitude: float
    noise_sd: float
    noise_ar: float
    outlier_rate: float
    shape: str  # "sine" or "harmonics"
    phase: float
    amplitude_drift: float = 0.0
    level_shift_week: Optional[int] = None
    level_shift: float = 0.0
    slope_change_week: Optional[int] = None
    slope_after: Optional[float] = None
    missing_weeks: list[int] = field(default_factory=list)
    seasonal_pattern: list[float] = field(default_factory=list)  # one 52-week cycle


def _seasonal_pattern(rng: np.random.Generator, shape: str, phase: float, period: int = 52) -> np.ndarray:
    """Unit-amplitude periodic pattern over one cycle."""
    t = np.arange(period)
    if shape == "sine":
        pattern = np.sin(2.0 * np.pi * (t / period + phase))
    else:
        pattern = np.zeros(period, dtype=float)
        for harmonic in (1, 2, 3):
            a, b = rng.normal(size=2) / harmonic
            pattern += a * np.cos(2.0 * np.pi * harmonic * (t / period + phase))
            pattern += b * np.sin(2.0 * np.pi * harmonic * (t / period + phase))
        peak = np.max(np.abs(pattern))
        if peak > 0:
            pattern /= peak
    return pattern


def generate_series(spec: SyntheticSpec, index: int) -> tuple[WeeklySeries, SeriesTruth]:
    """Deterministically generate series ``index`` of the corpus."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.rng_seed, index]))

    parameter = PARAMETERS[int(rng.integers(len(PARAMETERS)))]
    voltage = VOLTAGE_LEVELS[int(rng.integers(len(VOLTAGE_LEVELS)))]
    series_id = f"S{index:04d}:{parameter}:{voltage}"

    base = float(rng.uniform(*spec.base_range))
    trend = float(rng.uniform(*spec.trend_range))
    amplitude = float(rng.uniform(*spec.amplitude_range))
    noise_sd = float(rng.uniform(*spec.noise_sd_range))
    noise_ar = float(rng.uniform(*spec.noise_ar_range))
    outlier_rate = float(rng.uniform(*spec.outlier_rate_range))
    shape = "sine" if rng.random() < 0.5 else "harmonics"
    phase = float(rng.random())
    amplitude_drift = float(rng.uniform(*spec.amplitude_drift_range))

    n = spec.length_weeks
    shift_week: Optional[int] = None
    shift = 0.0
    if rng.random() < spec.level_shift_prob:
        shift_week = int(rng.integers(10, max(n - 10, 11)))
        shift = float(rng.uniform(*spec.level_shift_range))
    slope_week: Optional[int] = None
    slope_after: Optional[float] = None
    if rng.random() < spec.slope_change_prob:
        slope_week = int(rng.integers(10, max(n - 10, 11)))
        slope_after = float(rng.uniform(*spec.trend_range))

    pattern = _seasonal_pattern(rng, shape, phase)
    t = np.arange(n)
    trend_part = base + trend * t
    if slope_week is not None:
        after = t >= slope_week
        trend_part[after] = base + trend * slope_week + slope_after * (t[after] - slope_week)
    amp_t = amplitude * (1.0 + amplitude_drift * t / max(n - 1, 1))
    shocks = rng.normal(scale=noise_sd * np.sqrt(1.0 - noise_ar**2), size=n)
    noise = np.empty(n)
    noise[0] = rng.normal(scale=noise_sd)
    for i in range(1, n):  # AR(1) noise with stationary variance noise_sd^2
        noise[i] = noise_ar * noise[i - 1] + shocks[i]
    values = trend_part + amp_t * pattern[t % len(pattern)] + noise
    if shift_week is not None:
        values[shift_week:] += shift
    spikes = rng.random(n) < outlier_rate
    values[spikes] += (2.0 + 3.0 * rng.random(int(spikes.sum()))) * max(noise_sd, 0.5)
    values = np.maximum(values, 0.0)

    missing = sorted(np.nonzero(rng.random(n) < spec.missing_rate)[0].tolist())

    truth = SeriesTruth(
        series_id=series_id, base=base, trend=trend, amplitude=amplitude,
        noise_sd=noise_sd, noise_ar=noise_ar, outlier_rate=outlier_rate,
        shape=shape, phase=phase, amplitude_drift=amplitude_drift,
        level_shift_week=shift_week, level_shift=shift,
        slope_change_week=slope_week, slope_after=slope_after,
        missing_weeks=missing, seasonal_pattern=[float(v) for v in pattern],
    )
    series = WeeklySeries(series_id=series_id, start_week=spec.start_week, values=values)
    return series, truth


def generate_corpus(spec: SyntheticSpec) -> tuple[list[WeeklySeries], list[SeriesTruth]]:
    pairs = [generate_series(spec, i) for i in range(spec.n_series)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def write_truth(path: Path, spec: SyntheticSpec, truths: list[SeriesTruth]) -> None:
    payload = {
        "spec": asdict(spec),
        "series": [asdict(t) for t in truths],
    }
    write_text(path, json.dumps(payload, indent=2, sort_keys=True))

