"""Ensemble enumeration and forecast combination.

Every subset of two or more of the eight public models is an ensemble
configuration: 247 in total. Names encode the size as a letter (B = 2
members through H = all 8) and a 1-based index within the size class,
assigned in lexicographic order of member indices. Four combination rules
turn member forecasts into an ensemble forecast: pointwise mean, pointwise
median, and two convex weightings where a member's weight is the
normalized reciprocal of its corpus-level mean sMAPE or mean rank.
``combine`` turns one series' eight member rows into every ensemble's row
with one reduction per ensemble size and method, the same arithmetic per
row as combining that ensemble's members alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .models import ModelId, PUBLIC_MODELS

SIZE_LETTERS = "BCDEFGH"  # sizes 2..8

_NAME_RE = re.compile(r"^([B-H])(\d{2,})$")


class CombinationMethod(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    SMAPE_WEIGHTED = "smape"
    RANK_WEIGHTED = "rank"

    @property
    def needs_phi(self) -> bool:
        return self in (CombinationMethod.SMAPE_WEIGHTED, CombinationMethod.RANK_WEIGHTED)


ALL_METHODS: tuple[CombinationMethod, ...] = tuple(CombinationMethod)


@dataclass(frozen=True)
class EnsembleId:
    """A named ensemble configuration: size letter, index, member models."""

    letter: str
    index: int
    members: tuple[ModelId, ...]

    def __post_init__(self) -> None:
        expected = SIZE_LETTERS[len(self.members) - 2] if 2 <= len(self.members) <= 8 else None
        if expected != self.letter:
            raise ConfigError(f"letter {self.letter} does not match {len(self.members)} members")

    @property
    def name(self) -> str:
        return f"{self.letter}{self.index:02d}"

    def producer(self, method: CombinationMethod) -> str:
        return f"{self.name}:{method.value}"


@lru_cache(maxsize=1)
def enumerate_ensembles() -> tuple[EnsembleId, ...]:
    """All 247 ensemble configurations in canonical order."""
    out = []
    for size in range(2, len(PUBLIC_MODELS) + 1):
        letter = SIZE_LETTERS[size - 2]
        for index, members in enumerate(itertools.combinations(PUBLIC_MODELS, size), start=1):
            out.append(EnsembleId(letter=letter, index=index, members=members))
    return tuple(out)


@lru_cache(maxsize=1)
def _by_name() -> dict[str, EnsembleId]:
    return {e.name: e for e in enumerate_ensembles()}


def ensemble_by_name(name: str) -> EnsembleId:
    ens = _by_name().get(name.upper())
    if ens is None:
        raise ConfigError(f"unknown ensemble name {name!r}")
    return ens


@lru_cache(maxsize=4096)  # a table names ~1k labels; a bad one raises and is not cached
def parse_producer(producer: str) -> Optional[tuple[EnsembleId, CombinationMethod]]:
    """Split an ensemble producer label like ``D28:median``; None for
    individual-model producers."""
    if ":" not in producer:
        return None
    name, _, method_name = producer.partition(":")
    if not _NAME_RE.match(name):
        return None
    try:
        method = CombinationMethod(method_name)
    except ValueError as exc:
        raise ConfigError(f"unknown combination method in {producer!r}") from exc
    return ensemble_by_name(name), method


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


#: Member indices (ensembles x k) of each ensemble size k, in canonical order.
_MEMBER_INDICES = tuple(np.array(list(itertools.combinations(range(len(PUBLIC_MODELS)), size)))
                        for size in range(2, len(PUBLIC_MODELS) + 1))


def ensemble_producers(methods: Sequence[CombinationMethod]) -> list[str]:
    """Producer labels of ``combine``'s rows, in the same order."""
    return [ens.producer(method) for ens in enumerate_ensembles() for method in methods]


def combine(
    members: np.ndarray,
    methods: Sequence[CombinationMethod],
    phi: Optional[Mapping[CombinationMethod, Sequence[float]]] = None,
) -> np.ndarray:
    """Every ensemble forecast of one series.

    ``members`` holds the eight public models' forecasts as rows in canonical
    order; ``phi`` gives each weighted method one metric value per model.
    Returns one row per (ensemble, method), ensembles in canonical order and
    the methods in the given order within each, as ``ensemble_producers``
    labels them. The rows are raw: a :class:`ForecastBlock` clamps them.
    """
    members = np.asarray(members, dtype=float)
    n_models = len(PUBLIC_MODELS)
    if members.ndim != 2 or len(members) != n_models:
        raise DataError(f"combine: need {n_models} member rows, got shape {members.shape}")
    for method in methods:
        if method.needs_phi and len((phi or {}).get(method, ())) != n_models:
            raise DataError(f"combine: method {method.value} requires {n_models} phi values")

    out = []
    for index in _MEMBER_INDICES:
        stacked = members[index]  # (ensembles x k x horizon)
        rows = np.empty((len(index), len(methods), members.shape[1]))
        for j, method in enumerate(methods):
            if method is CombinationMethod.MEAN:
                rows[:, j] = stacked.mean(axis=1)
            elif method is CombinationMethod.MEDIAN:
                rows[:, j] = np.median(stacked, axis=1)
            else:
                weights = compute_weights(np.asarray(phi[method], dtype=float)[index])
                rows[:, j] = (weights[:, None, :] @ stacked)[:, 0]
        out.append(rows.reshape(-1, members.shape[1]))
    return np.vstack(out)
