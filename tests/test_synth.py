from __future__ import annotations

import numpy as np
import pytest

from pqforecast.errors import ConfigError
from pqforecast.synth import SyntheticSpec, generate_corpus, generate_series
from pqforecast.weekly import SeriesKey


def test_identical_seed_identical_corpus():
    spec = SyntheticSpec(n_series=5, rng_seed=99)
    a, truths_a = generate_corpus(spec)
    b, truths_b = generate_corpus(spec)
    for sa, sb in zip(a, b):
        assert sa.series_id == sb.series_id
        assert np.array_equal(sa.values, sb.values)
    assert truths_a == truths_b


def test_different_seed_differs():
    a, _ = generate_corpus(SyntheticSpec(n_series=2, rng_seed=1))
    b, _ = generate_corpus(SyntheticSpec(n_series=2, rng_seed=2))
    assert not np.array_equal(a[0].values, b[0].values)


def test_series_are_nonnegative_and_right_length():
    corpus, _ = generate_corpus(SyntheticSpec(n_series=10, length_weeks=157, rng_seed=4))
    for s in corpus:
        assert len(s) == 157
        assert np.all(s.values >= 0.0)
        assert SeriesKey.try_parse(s.series_id) is not None


def test_series_index_independent_of_corpus_size():
    # series i is a pure function of (seed, i); growing the corpus must not
    # reshuffle earlier series
    small, _ = generate_corpus(SyntheticSpec(n_series=3, rng_seed=11))
    big, _ = generate_corpus(SyntheticSpec(n_series=6, rng_seed=11))
    for s, b in zip(small, big):
        assert np.array_equal(s.values, b.values)


def test_truth_reflects_structure():
    spec = SyntheticSpec(n_series=40, rng_seed=123)
    _, truths = generate_corpus(spec)
    assert any(t.level_shift_week is not None for t in truths)
    assert any(t.slope_change_week is not None for t in truths)
    assert any(t.level_shift_week is None for t in truths)
    for t in truths:
        assert len(t.seasonal_pattern) == 52
        assert spec.amplitude_range[0] <= t.amplitude <= spec.amplitude_range[1]


def test_missing_weeks_sampled_at_rate():
    spec = SyntheticSpec(n_series=1, length_weeks=400, missing_rate=0.3, rng_seed=8)
    _, truth = generate_series(spec, 0)
    assert 0.15 < len(truth.missing_weeks) / 400 < 0.45


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_series=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(n_series=1, missing_rate=1.5)


def test_noise_free_seasonal_series_is_snaive_fixed_point():
    from pqforecast.evaluation import smape
    from pqforecast.models import ModelId, TrainingWindow, fit_predict
    from pqforecast.weekly import split_train_test

    spec = SyntheticSpec(
        n_series=3, rng_seed=6,
        trend_range=(0.0, 0.0), noise_sd_range=(0.0, 0.0), noise_ar_range=(0.0, 0.0),
        outlier_rate_range=(0.0, 0.0), level_shift_prob=0.0, slope_change_prob=0.0,
        amplitude_drift_range=(0.0, 0.0),
    )
    corpus, _ = generate_corpus(spec)
    for series in corpus:
        train, test = split_train_test(series)
        fc = fit_predict(ModelId.SNAIVE, TrainingWindow(train.values))
        assert smape(test.values, np.maximum(fc.values, 0)) < 1e-9
