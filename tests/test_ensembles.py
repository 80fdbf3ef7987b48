from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pqforecast.ensembles import (
    SIZE_LETTERS,
    CombinationMethod,
    catalogue,
    combine,
    compute_weights,
    ensemble_producers,
    ensemble_weights,
    parse_producer,
)
from pqforecast.errors import ConfigError, DataError
from pqforecast.evaluation import Leaderboard, LeaderboardRow, mae
from pqforecast.models import ModelId, PUBLIC_MODELS

from conftest import WEIGHTED, reference_ensembles, weights_of


class TestCatalogue:
    def test_total_count(self):
        assert len(catalogue().members) == 247

    def test_size_counts_match_binomials(self):
        counts = Counter(name[0] for name in catalogue().members)
        oracle = {letter: math.comb(8, size) for letter, size in
                  zip("BCDEFGH", range(2, 9))}
        assert counts == oracle
        assert oracle == {"B": 28, "C": 56, "D": 70, "E": 56, "F": 28, "G": 8, "H": 1}

    def test_index_ranges(self):
        by_letter: dict[str, list[int]] = {}
        for name in catalogue().members:
            by_letter.setdefault(name[0], []).append(int(name[1:]))
        for letter, indices in by_letter.items():
            assert indices == list(range(1, len(indices) + 1)), letter

    def test_first_and_last(self):
        ensembles = list(catalogue().members.items())
        assert ensembles[0] == ("B01", (ModelId.SNAIVE, ModelId.HW))
        assert ensembles[-1] == ("H01", PUBLIC_MODELS)

    def test_sizes_ascend_and_each_size_is_lexicographic(self):
        order = {m: i for i, m in enumerate(PUBLIC_MODELS)}
        keys = [(len(models), tuple(order[m] for m in models)) for models in catalogue().members.values()]
        assert keys == sorted(keys)

    def test_letter_matches_member_count(self):
        for name, models in catalogue().members.items():
            assert name[0] == SIZE_LETTERS[len(models) - 2], name

    def test_built_once(self):
        assert catalogue() is catalogue()

    def test_988_unique_labels_in_combine_order(self):
        producers = catalogue().producers
        labels = ensemble_producers()
        assert labels == list(producers) and len(set(labels)) == 988
        assert labels[:5] == ["B01:mean", "B01:median", "B01:smape", "B01:rank", "B02:mean"]
        assert labels[-1] == "H01:rank"
        for label, (models, method) in producers.items():
            name, _, rule = label.partition(":")
            assert models is catalogue().members[name] and method.value == rule

    def test_parse_producer(self):
        assert parse_producer("D28:median") == (catalogue().members["D28"], CombinationMethod.MEDIAN)
        assert parse_producer("SNaive") is None
        assert parse_producer("STL-ARIMA") is None
        assert parse_producer("b01:mean") is None  # not shaped like an ensemble name
        with pytest.raises(ConfigError):
            parse_producer("D28:sideways")

    def test_parse_producer_is_a_lookup_and_bad_labels_raise_every_time(self):
        assert parse_producer("D28:median") is catalogue().producers["D28:median"]
        for label, message in [("B01:avg", "unknown combination method in 'B01:avg'"),
                               ("B99:mean", "unknown ensemble name 'B99'")]:
            for _ in range(2):
                with pytest.raises(ConfigError, match=message):
                    parse_producer(label)


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


class TestEnsembleWeights:
    @staticmethod
    def board(smape, rank, names=tuple(m.value for m in PUBLIC_MODELS)) -> Leaderboard:
        return Leaderboard([LeaderboardRow(n, 1.0, s, r, 1.0) for n, s, r in zip(names, smape, rank)], 1)

    def test_each_size_weights_its_members_by_both_metrics(self, rng):
        phi = {m: rng.uniform(0.5, 20.0, 8) for m in WEIGHTED}
        weights = ensemble_weights(self.board(*phi.values()))
        assert len(weights) == 7
        position = {m: i for i, m in enumerate(PUBLIC_MODELS)}
        for size, (smape_w, rank_w) in enumerate(weights, start=2):
            models = [ms for ms in catalogue().members.values() if len(ms) == size]
            index = np.array([[position[m] for m in ms] for ms in models])
            assert smape_w.tobytes() == compute_weights(phi[CombinationMethod.SMAPE_WEIGHTED][index]).tobytes()
            assert rank_w.tobytes() == compute_weights(phi[CombinationMethod.RANK_WEIGHTED][index]).tobytes()

    def test_board_order_and_other_producers_do_not_matter(self, rng):
        smape, rank = rng.uniform(0.5, 20.0, (2, 8))
        names = [m.value for m in PUBLIC_MODELS]
        board = self.board(smape, rank)
        shuffled = self.board([*smape[::-1], 1.0], [*rank[::-1], 1.0], [*names[::-1], "B01:mean"])
        for got, want in zip(ensemble_weights(shuffled), ensemble_weights(board)):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_errors(self):
        ones = [1.0] * 8
        with pytest.raises(ConfigError, match="producer 'SNaive' not on the leaderboard"):
            ensemble_weights(self.board(ones[1:], ones[1:], [m.value for m in PUBLIC_MODELS[1:]]))
        for smape, rank in [(ones[:7] + [0.0], ones), (ones, ones[:7] + [np.inf])]:
            with pytest.raises(DataError, match="positive and finite"):
                ensemble_weights(self.board(smape, rank))


def member_matrix(rng, **levels) -> np.ndarray:
    """(8 x 52) member forecasts: random rows, with constant rows for the
    models named in ``levels`` (``SNaive=10.0``)."""
    members = rng.uniform(0, 50, (len(PUBLIC_MODELS), 52))
    for i, model in enumerate(PUBLIC_MODELS):
        key = model.value.replace("-", "_")
        if key in levels:
            members[i] = levels[key]
    return members


def ensemble_row(table: np.ndarray, label: str) -> np.ndarray:
    """The row of ``combine``'s output labelled ``label`` (``"B01:mean"``)."""
    return table[ensemble_producers().index(label)]


def member_index(models) -> list[int]:
    return [PUBLIC_MODELS.index(m) for m in models]


EQUAL = weights_of({m: [1.0] * 8 for m in WEIGHTED})


class TestCombine:
    def test_mean_of_two(self, rng):
        table = combine(member_matrix(rng, SNaive=10.0, HW=20.0), EQUAL)
        assert ensemble_row(table, "B01:mean") == pytest.approx([15.0] * 52)

    def test_median_resists_outlier(self, rng):
        table = combine(member_matrix(rng, SNaive=1.0, HW=100.0, SARIMA=2.0), EQUAL)
        assert catalogue().members["C01"] == PUBLIC_MODELS[:3]
        assert ensemble_row(table, "C01:median") == pytest.approx([2.0] * 52)

    def test_even_median_is_midpoint(self, rng):
        members = member_matrix(rng, SNaive=1.0, HW=2.0, SARIMA=10.0, Prophet=11.0)
        assert catalogue().members["D01"] == PUBLIC_MODELS[:4]
        assert ensemble_row(combine(members, EQUAL), "D01:median") == pytest.approx([6.0] * 52)

    def test_weighted_hand_computation(self, rng):
        phi = {CombinationMethod.SMAPE_WEIGHTED: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
               CombinationMethod.RANK_WEIGHTED: [3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0]}
        table = combine(member_matrix(rng, SNaive=10.0, HW=20.0), weights_of(phi))
        assert ensemble_row(table, "B01:smape") == \
            pytest.approx([10 * (2 / 3) + 20 * (1 / 3)] * 52, rel=1e-12)
        assert ensemble_row(table, "B01:rank") == pytest.approx([10 * 0.25 + 20 * 0.75] * 52, rel=1e-12)

    def test_mean_equals_weighted_with_equal_phi(self, rng):
        table = combine(member_matrix(rng), weights_of({m: [7.0] * 8 for m in WEIGHTED}))
        assert table[2::4] == pytest.approx(table[0::4], rel=1e-15)
        assert table[3::4] == pytest.approx(table[0::4], rel=1e-15)

    def test_permutation_invariance(self, rng):
        # relabelling the models permutes the ensembles, not their forecasts
        members = member_matrix(rng)
        phi = {m: rng.uniform(0.5, 5.0, 8) for m in WEIGHTED}
        perm = rng.permutation(8)  # new model i is old model perm[i]
        base = combine(members, weights_of(phi))
        shuffled = combine(members[perm], weights_of({m: v[perm] for m, v in phi.items()}))
        ensembles = list(catalogue().members.values())
        row_of = {frozenset(member_index(models)): i for i, models in enumerate(ensembles)}
        for i, models in enumerate(ensembles):
            j = row_of[frozenset(int(perm[k]) for k in member_index(models))]
            assert shuffled[i * 4:(i + 1) * 4] == pytest.approx(base[j * 4:(j + 1) * 4], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_convex_hull_boundedness(self, seed):
        rng = np.random.default_rng(seed)
        members = rng.uniform(0, 100, (8, 52))
        phi = {m: rng.uniform(0.1, 10.0, 8) for m in WEIGHTED}
        table = combine(members, weights_of(phi)).reshape(247, 4, 52)
        for models, rows in zip(catalogue().members.values(), table):
            stacked = members[member_index(models)]
            assert np.all(rows >= stacked.min(axis=0) - 1e-9)
            assert np.all(rows <= stacked.max(axis=0) + 1e-9)

    def test_mean_mae_dominance(self, rng):
        # MAE of the mean combination never exceeds the mean of member MAEs
        for _ in range(5):
            members = rng.uniform(0, 100, (8, 52))
            actual = rng.uniform(0, 100, 52)
            member_maes = mae(actual, members)
            for models, row in zip(catalogue().members.values(), combine(members, EQUAL)[0::4]):
                assert mae(actual, row) <= np.mean(member_maes[member_index(models)]) + 1e-9

    def test_errors(self):
        members = np.ones((8, 52))
        with pytest.raises(DataError, match="need 8 member rows"):
            combine(members[:2], EQUAL)
        with pytest.raises(DataError, match="need 8 member rows"):
            combine(np.ones(52), EQUAL)
        with pytest.raises(ValueError):  # not one weight pair per ensemble size
            combine(members, EQUAL[:-1])

    def test_one_row_per_label(self):
        assert len(combine(np.ones((8, 3)), EQUAL)) == len(ensemble_producers()) == 988


def _reference_check(members, phi) -> None:
    """The kernel's rows, clamped as a ForecastBlock clamps them, equal the
    per-ensemble oracle byte for byte."""
    got = np.maximum(combine(members, weights_of(phi)), 0.0)
    want = reference_ensembles(members, phi)
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
    )
    def test_hypothesis_member_matrices(self, members, phi_rows):
        _reference_check(members, dict(zip(WEIGHTED, phi_rows)))
