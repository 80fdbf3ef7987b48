from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pqforecast.ensembles import (
    ALL_METHODS,
    CombinationMethod,
    EnsembleId,
    combine,
    compute_weights,
    ensemble_by_name,
    ensemble_producers,
    enumerate_ensembles,
    parse_producer,
)
from pqforecast.errors import ConfigError, DataError
from pqforecast.evaluation import mae
from pqforecast.models import ModelId, PUBLIC_MODELS

from conftest import reference_ensembles


class TestEnumeration:
    def test_total_count(self):
        assert len(enumerate_ensembles()) == 247

    def test_size_counts_match_binomials(self):
        counts = Counter(e.letter for e in enumerate_ensembles())
        oracle = {letter: math.comb(8, size) for letter, size in
                  zip("BCDEFGH", range(2, 9))}
        assert counts == oracle
        assert oracle == {"B": 28, "C": 56, "D": 70, "E": 56, "F": 28, "G": 8, "H": 1}

    def test_index_ranges(self):
        by_letter: dict[str, list[int]] = {}
        for e in enumerate_ensembles():
            by_letter.setdefault(e.letter, []).append(e.index)
        for letter, indices in by_letter.items():
            assert indices == list(range(1, len(indices) + 1)), letter

    def test_first_and_last(self):
        ensembles = enumerate_ensembles()
        assert ensembles[0].name == "B01"
        assert ensembles[0].members == (ModelId.SNAIVE, ModelId.HW)
        assert ensembles[-1].name == "H01"
        assert ensembles[-1].members == PUBLIC_MODELS

    def test_lexicographic_within_size(self):
        order = {m: i for i, m in enumerate(PUBLIC_MODELS)}
        ensembles = [e for e in enumerate_ensembles() if e.letter == "C"]
        tuples = [tuple(order[m] for m in e.members) for e in ensembles]
        assert tuples == sorted(tuples)

    def test_name_roundtrip(self):
        for e in enumerate_ensembles():
            assert ensemble_by_name(e.name) is e

    def test_stable_across_calls(self):
        assert enumerate_ensembles() is enumerate_ensembles()

    def test_letter_size_consistency_enforced(self):
        with pytest.raises(ConfigError):
            EnsembleId(letter="C", index=1, members=(ModelId.SNAIVE, ModelId.HW))

    def test_full_sweep_is_988_producers(self):
        producers = {e.producer(m) for e in enumerate_ensembles() for m in ALL_METHODS}
        assert len(producers) == 988

    def test_parse_producer(self):
        ens, method = parse_producer("D28:median")
        assert ens.name == "D28" and method is CombinationMethod.MEDIAN
        assert parse_producer("SNaive") is None
        assert parse_producer("STL-ARIMA") is None
        with pytest.raises(ConfigError):
            parse_producer("D28:sideways")


class TestWeights:
    def test_equal_metrics_give_equal_weights(self):
        assert compute_weights([3.3, 3.3, 3.3]) == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_two_member_hand_computation(self):
        assert compute_weights([1.0, 2.0]) == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_published_mean_smape_pair(self):
        # corpus mean sMAPE values 18.22 and 20.88; oracle = independent
        # reciprocal normalization
        phi = np.array([18.22, 20.88])
        inv = 1.0 / phi
        oracle = inv / inv.sum()
        w = compute_weights(phi)
        assert w == pytest.approx(oracle, rel=1e-12)
        assert w == pytest.approx([0.534, 0.466], abs=5e-4)

    def test_sum_to_one(self, rng):
        for _ in range(200):
            phi = rng.uniform(0.01, 100.0, size=int(rng.integers(2, 9)))
            w = compute_weights(phi)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0)

    def test_decreasing_in_phi(self):
        w = compute_weights([1.0, 2.0, 5.0])
        assert w[0] > w[1] > w[2]

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(DataError):
            compute_weights([1.0, 0.0])
        with pytest.raises(DataError):
            compute_weights([1.0, -2.0])


def member_matrix(rng, **levels) -> np.ndarray:
    """(8 x 52) member forecasts: random rows, with constant rows for the
    models named in ``levels`` (``SNaive=10.0``)."""
    members = rng.uniform(0, 50, (len(PUBLIC_MODELS), 52))
    for i, model in enumerate(PUBLIC_MODELS):
        key = model.value.replace("-", "_")
        if key in levels:
            members[i] = levels[key]
    return members


def ensemble_row(table: np.ndarray, label: str, methods) -> np.ndarray:
    """The row of ``combine``'s output labelled ``label`` (``"B01:mean"``)."""
    return table[ensemble_producers(methods).index(label)]


def member_index(ens) -> list[int]:
    return [PUBLIC_MODELS.index(m) for m in ens.members]


WEIGHTED = [m for m in ALL_METHODS if m.needs_phi]


class TestCombine:
    def test_mean_of_two(self, rng):
        methods = [CombinationMethod.MEAN]
        table = combine(member_matrix(rng, SNaive=10.0, HW=20.0), methods)
        assert ensemble_row(table, "B01:mean", methods) == pytest.approx([15.0] * 52)

    def test_median_resists_outlier(self, rng):
        methods = [CombinationMethod.MEDIAN]
        table = combine(member_matrix(rng, SNaive=1.0, HW=100.0, SARIMA=2.0), methods)
        assert ensemble_by_name("C01").members == PUBLIC_MODELS[:3]
        assert ensemble_row(table, "C01:median", methods) == pytest.approx([2.0] * 52)

    def test_even_median_is_midpoint(self, rng):
        methods = [CombinationMethod.MEDIAN]
        members = member_matrix(rng, SNaive=1.0, HW=2.0, SARIMA=10.0, Prophet=11.0)
        assert ensemble_by_name("D01").members == PUBLIC_MODELS[:4]
        assert ensemble_row(combine(members, methods), "D01:median", methods) == \
            pytest.approx([6.0] * 52)

    def test_weighted_hand_computation(self, rng):
        methods = [CombinationMethod.SMAPE_WEIGHTED]
        phi = {CombinationMethod.SMAPE_WEIGHTED: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]}
        table = combine(member_matrix(rng, SNaive=10.0, HW=20.0), methods, phi)
        assert ensemble_row(table, "B01:smape", methods) == \
            pytest.approx([10 * (2 / 3) + 20 * (1 / 3)] * 52, rel=1e-12)

    def test_mean_equals_weighted_with_equal_phi(self, rng):
        methods = [CombinationMethod.MEAN, CombinationMethod.SMAPE_WEIGHTED]
        phi = {CombinationMethod.SMAPE_WEIGHTED: [7.0] * 8}
        table = combine(member_matrix(rng), methods, phi)
        assert table[1::2] == pytest.approx(table[0::2], rel=1e-15)

    def test_permutation_invariance(self, rng):
        # relabelling the models permutes the ensembles, not their forecasts
        members = member_matrix(rng)
        phi = {m: rng.uniform(0.5, 5.0, 8) for m in WEIGHTED}
        perm = rng.permutation(8)  # new model i is old model perm[i]
        base = combine(members, ALL_METHODS, phi)
        shuffled = combine(members[perm], ALL_METHODS, {m: v[perm] for m, v in phi.items()})
        row_of = {frozenset(member_index(e)): i for i, e in enumerate(enumerate_ensembles())}
        n = len(ALL_METHODS)
        for i, ens in enumerate(enumerate_ensembles()):
            j = row_of[frozenset(int(perm[k]) for k in member_index(ens))]
            assert shuffled[i * n:(i + 1) * n] == pytest.approx(base[j * n:(j + 1) * n], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_convex_hull_boundedness(self, seed):
        rng = np.random.default_rng(seed)
        members = rng.uniform(0, 100, (8, 52))
        phi = {m: rng.uniform(0.1, 10.0, 8) for m in WEIGHTED}
        table = combine(members, ALL_METHODS, phi).reshape(247, len(ALL_METHODS), 52)
        for ens, rows in zip(enumerate_ensembles(), table):
            stacked = members[member_index(ens)]
            assert np.all(rows >= stacked.min(axis=0) - 1e-9)
            assert np.all(rows <= stacked.max(axis=0) + 1e-9)

    def test_mean_mae_dominance(self, rng):
        # MAE of the mean combination never exceeds the mean of member MAEs
        methods = [CombinationMethod.MEAN]
        for _ in range(5):
            members = rng.uniform(0, 100, (8, 52))
            actual = rng.uniform(0, 100, 52)
            member_maes = mae(actual, members)
            for ens, row in zip(enumerate_ensembles(), combine(members, methods)):
                assert mae(actual, row) <= np.mean(member_maes[member_index(ens)]) + 1e-9

    def test_errors(self):
        members = np.ones((8, 52))
        with pytest.raises(DataError, match="need 8 member rows"):
            combine(members[:2], [CombinationMethod.MEAN])
        with pytest.raises(DataError, match="need 8 member rows"):
            combine(np.ones(52), [CombinationMethod.MEAN])
        with pytest.raises(DataError, match="phi"):
            combine(members, [CombinationMethod.SMAPE_WEIGHTED])
        with pytest.raises(DataError, match="phi"):
            combine(members, [CombinationMethod.RANK_WEIGHTED],
                    {CombinationMethod.SMAPE_WEIGHTED: [1.0] * 8})
        with pytest.raises(DataError, match="rank requires 8 phi values"):
            combine(members, [CombinationMethod.RANK_WEIGHTED],
                    {CombinationMethod.RANK_WEIGHTED: [1.0, 2.0, 3.0]})
        with pytest.raises(DataError, match="positive"):
            combine(members, [CombinationMethod.RANK_WEIGHTED],
                    {CombinationMethod.RANK_WEIGHTED: [1.0] * 7 + [0.0]})

    def test_producer_label(self):
        methods = [CombinationMethod.MEDIAN, CombinationMethod.MEAN]
        labels = ensemble_producers(methods)
        assert labels[:3] == ["B01:median", "B01:mean", "B02:median"]
        assert labels[-1] == "H01:mean"
        assert len(labels) == len(combine(np.ones((8, 3)), methods)) == 2 * 247


def _reference_check(members, phi, methods=ALL_METHODS) -> None:
    """The kernel's rows, clamped as a ForecastBlock clamps them, equal the
    per-ensemble oracle byte for byte."""
    got = np.maximum(combine(members, methods, phi), 0.0)
    want = reference_ensembles(members, methods, phi)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCombineReference:
    """``combine`` against the per-ensemble loop it replaced (conftest)."""

    def test_seeded_member_matrices(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            members = rng.uniform(0, 100, (8, int(rng.integers(1, 60))))
            if trial % 3 == 0:
                members[rng.integers(8)] = 0.0  # a zero row
            if trial % 4 == 0:
                members[rng.integers(8)] = members[rng.integers(8)]  # median ties
            if trial % 5 == 0:
                members[:, ::2] = rng.choice([0.0, 1.0, 2.5], size=members[:, ::2].shape)
            scale = 10.0 ** rng.uniform(-8, 8, 8) if trial % 2 else rng.uniform(0.5, 8.0, 8)
            phi = {m: scale * rng.uniform(0.5, 2.0, 8) for m in WEIGHTED}
            _reference_check(members, phi)

    @settings(max_examples=150, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.just(8), st.integers(1, 53)),
                   elements=st.one_of(st.floats(0.0, 1e4), st.just(-0.0))),
        hnp.arrays(np.float64, (2, 8), elements=st.floats(1e-9, 1e9)),
        st.permutations(ALL_METHODS),
    )
    def test_hypothesis_member_matrices(self, members, phi_rows, methods):
        phi = dict(zip(WEIGHTED, phi_rows))
        _reference_check(members, phi, methods)

    def test_single_method_orders(self, rng):
        members = rng.uniform(0, 100, (8, 52))
        phi = {m: rng.uniform(1.0, 8.0, 8) for m in WEIGHTED}
        for method in ALL_METHODS:
            _reference_check(members, phi, [method])
