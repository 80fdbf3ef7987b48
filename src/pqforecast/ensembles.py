"""The ensemble catalogue and forecast combination.

Every subset of two or more of the eight public models is an ensemble:
247 in total, named by a size letter (B = 2 members through H = all 8) and
a 1-based index within the size, in lexicographic order of member indices.
Four rules combine members: pointwise mean, pointwise median, and two
convex weightings by the normalized reciprocal of each member's corpus
mean sMAPE or mean rank. ``catalogue()`` lists the 988 (ensemble, rule)
producer labels, ``D28:median``, in ``combine``'s row order.
``ensemble_weights`` derives both weightings from the individual
leaderboard once per stage; ``combine`` turns one series' eight member rows
into all 988 rows with one reduction per ensemble size and rule, the same
arithmetic per row as combining that ensemble's members alone.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .models import ModelId, PUBLIC_MODELS

if TYPE_CHECKING:
    from .evaluation import Leaderboard

SIZE_LETTERS = "BCDEFGH"  # sizes 2..8


class CombinationMethod(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    SMAPE_WEIGHTED = "smape"
    RANK_WEIGHTED = "rank"


#: Member indices (ensembles x k) of each ensemble size k, in canonical order.
_MEMBER_INDICES = tuple(np.array(list(itertools.combinations(range(len(PUBLIC_MODELS)), size)))
                        for size in range(2, len(PUBLIC_MODELS) + 1))


class Catalogue(NamedTuple):
    """The paper's fixed ensemble table; one instance is shared, so callers must not modify it."""
    members: dict[str, tuple[ModelId, ...]]  # the 247 ensemble names and their models, in canonical order
    producers: dict[str, tuple[tuple[ModelId, ...], CombinationMethod]]  # the 988 labels, in combine's row order


@lru_cache(maxsize=1)  # built on first use: a stage that meets no ensemble never holds it
def catalogue() -> Catalogue:
    members = {f"{SIZE_LETTERS[index.shape[1] - 2]}{i:02d}": tuple(PUBLIC_MODELS[j] for j in row)
               for index in _MEMBER_INDICES for i, row in enumerate(index.tolist(), start=1)}
    producers = {f"{name}:{method.value}": (models, method)
                 for name, models in members.items() for method in CombinationMethod}
    return Catalogue(members, producers)


def ensemble_producers() -> list[str]:
    """Producer labels of ``combine``'s rows, in the same order."""
    return list(catalogue().producers)


def parse_producer(producer: str) -> Optional[tuple[tuple[ModelId, ...], CombinationMethod]]:
    """The members and rule of an ensemble producer label like
    ``D28:median``; None for individual-model producers."""
    if ":" not in producer:
        return None
    parsed = catalogue().producers.get(producer)
    if parsed is None:
        name, _, method = producer.partition(":")
        if not re.match(r"^[B-H]\d{2,}$", name):  # not shaped like an ensemble name
            return None
        if method not in [m.value for m in CombinationMethod]:
            raise ConfigError(f"unknown combination method in {producer!r}")
        raise ConfigError(f"unknown ensemble name {name!r}")
    return parsed


def compute_weights(phi: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized reciprocal weights: lower metric values earn larger weights.
    Each row of a 2-D ``phi`` is one ensemble's members."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1] == 0:
        raise DataError("compute_weights: empty metric vector")
    if np.any(phi <= 0) or not np.all(np.isfinite(phi)):
        raise DataError("compute_weights: metric values must be positive and finite")
    inv = 1.0 / phi
    return inv / inv.sum(axis=-1, keepdims=True)


def ensemble_weights(board: Leaderboard) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The two weighted rules' member weights, (ensembles x k) for each size
    k: from each model's mean sMAPE and mean rank on the individual
    leaderboard ``board``, which must score all eight."""
    rows = [board.row(model.value) for model in PUBLIC_MODELS]
    phi = (np.array([r.mean_smape for r in rows]), np.array([r.mean_rank for r in rows]))
    return tuple(tuple(compute_weights(metric[index]) for metric in phi) for index in _MEMBER_INDICES)


def combine(members: np.ndarray, weights: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Every ensemble forecast of one series.

    ``members`` holds the eight public models' forecasts as rows in canonical
    order; ``weights`` is ``ensemble_weights``' result. Returns one row per
    producer of ``catalogue()``, in its order: ensembles in canonical order,
    the four rules in ``CombinationMethod`` order within each. The rows are
    raw: a :class:`ForecastBlock` clamps them.
    """
    members = np.asarray(members, dtype=float)
    if members.ndim != 2 or len(members) != len(PUBLIC_MODELS):
        raise DataError(f"combine: need {len(PUBLIC_MODELS)} member rows, got shape {members.shape}")

    out = []
    for index, weighted in zip(_MEMBER_INDICES, weights, strict=True):
        stacked = members[index]  # (ensembles x k x horizon)
        rows = np.empty((len(index), len(CombinationMethod), members.shape[1]))  # mean, median, smape, rank
        rows[:, 0] = stacked.mean(axis=1)
        rows[:, 1] = np.median(stacked, axis=1)
        for j, w in enumerate(weighted, start=2):
            rows[:, j] = (w[:, None, :] @ stacked)[:, 0]
        out.append(rows.reshape(-1, members.shape[1]))
    return np.vstack(out)
