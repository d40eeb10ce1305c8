"""Shared domain types: feature banks, pseudo-labels, ranked lists, agreement scores.

Every container in this module is immutable after construction (frozen
dataclass holding read-only array copies), so a stage can hand an instance
to the next without copying it. All validation happens in
``__post_init__``; an invalid instance cannot exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

NORM_ATOL = 1e-6

GLOBAL_SPACE = "global"


def part_space(n: int) -> str:
    """Canonical space id for the n-th part feature space."""
    return f"part{n}"


class PPLRError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PPLRError):
    """Invalid configuration value or unknown configuration key."""


class NoValidQueryError(ConfigError):
    """Retrieval cannot be scored: no query has a cross-camera positive."""


class DataFormatError(PPLRError):
    """Malformed serialized artifact (bad magic, truncation, and so on)."""


class NumericalError(PPLRError):
    """Numerically invalid data: NaN/inf entries, zero-norm rows."""


def _require_finite(config, *names: str) -> None:
    """Reject NaN and +-inf in the named number fields of a config
    dataclass, naming the field: a range check written as a comparison
    lets NaN through and accepts an infinite bound. A Python int is always
    finite (and may be too large to convert to a float)."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, int) and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.array(values, copy=True)
    out.flags.writeable = False
    return out


def l2_normalize(matrix: np.ndarray) -> np.ndarray:
    """Scale every row of a 2-D matrix to unit Euclidean norm.

    Computation is done in float64 regardless of input dtype so that
    normalizing twice is a no-op to within 1e-12.

    Raises:
        NumericalError: on non-finite entries or an all-zero row; the
            message names the first offending row.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        bad = int(np.flatnonzero(~np.isfinite(m).all(axis=1))[0])
        raise NumericalError(f"non-finite entry in row {bad}")
    norms = np.linalg.norm(m, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise NumericalError(f"zero-norm row {int(zero[0])}")
    return m / norms[:, None]


@dataclass(frozen=True, eq=False)
class FeatureBank:
    """One global plus ``n_parts`` part feature matrices for N samples.

    ``camera_ids`` and ``gt_ids`` are optional per-sample integer vectors;
    ``gt_ids`` exists only for synthetic data where ground truth is known.
    The ``normalized`` flag asserts that every row of every matrix has unit
    L2 norm (checked at construction).
    """

    global_feats: np.ndarray
    part_feats: Tuple[np.ndarray, ...]
    camera_ids: Optional[np.ndarray] = None
    gt_ids: Optional[np.ndarray] = None
    normalized: bool = False

    def __post_init__(self) -> None:
        g = np.asarray(self.global_feats)
        if g.ndim != 2 or not np.issubdtype(g.dtype, np.floating):
            raise ValueError("global features must be a 2-D float matrix")
        parts = tuple(np.asarray(p) for p in self.part_feats)
        if not parts:
            raise ValueError("at least one part feature space is required")
        n, dim = g.shape
        for idx, p in enumerate(parts):
            if p.shape != (n, dim):
                raise ValueError(
                    f"part {idx} has shape {p.shape}, expected {(n, dim)}"
                )
        for space_id, m in [(GLOBAL_SPACE, g)] + [
            (part_space(i), p) for i, p in enumerate(parts)
        ]:
            if not np.all(np.isfinite(m)):
                raise NumericalError(f"non-finite entry in {space_id} features")
            if self.normalized:
                norms = np.linalg.norm(np.asarray(m, dtype=np.float64), axis=1)
                if np.any(np.abs(norms - 1.0) > NORM_ATOL):
                    raise ValueError(
                        f"bank flagged normalized but {space_id} rows are not unit-norm"
                    )
        object.__setattr__(self, "global_feats", _frozen(g))
        object.__setattr__(self, "part_feats", tuple(_frozen(p) for p in parts))
        for name in ("camera_ids", "gt_ids"):
            vec = getattr(self, name)
            if vec is None:
                continue
            arr = np.asarray(vec)
            if arr.shape != (n,) or not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must be a length-{n} integer vector")
            object.__setattr__(self, name, _frozen(arr.astype(np.int64)))

    @property
    def n_samples(self) -> int:
        return self.global_feats.shape[0]

    @property
    def dim(self) -> int:
        return self.global_feats.shape[1]

    @property
    def n_parts(self) -> int:
        return len(self.part_feats)

    def spaces(self) -> Tuple[Tuple[str, np.ndarray], ...]:
        """All (space_id, matrix) pairs, global first."""
        return ((GLOBAL_SPACE, self.global_feats),) + tuple(
            (part_space(i), p) for i, p in enumerate(self.part_feats)
        )


def normalize_bank(bank: FeatureBank) -> FeatureBank:
    """A float64 copy of ``bank`` with every feature row L2-normalized."""
    return FeatureBank(
        global_feats=l2_normalize(bank.global_feats),
        part_feats=tuple(l2_normalize(p) for p in bank.part_feats),
        camera_ids=bank.camera_ids,
        gt_ids=bank.gt_ids,
        normalized=True,
    )


@dataclass(frozen=True, eq=False)
class PseudoLabels:
    """Hard cluster assignment per sample; -1 marks outliers.

    The cluster count ``k_clusters`` is derived from the labels, once, at
    construction: the labels must cover 0..K-1 with no gap.
    """

    labels: np.ndarray
    k_clusters: int = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("labels must be a 1-D integer vector")
        arr = arr.astype(np.int64)
        if arr.size and arr.min() < -1:
            raise ValueError("labels below -1 are not allowed")
        present = np.unique(arr[arr >= 0])
        if not np.array_equal(present, np.arange(present.size)):
            raise ValueError(
                f"labels must cover 0..K-1 with no gap; found clusters {present.tolist()}"
            )
        object.__setattr__(self, "labels", _frozen(arr))
        object.__setattr__(self, "k_clusters", int(present.size))

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def n_outliers(self) -> int:
        return int(np.count_nonzero(self.labels < 0))

    def cluster_members(self) -> Tuple[np.ndarray, ...]:
        """Per-cluster arrays of member indices, ascending: one stable sort
        of the labels, cut where each cluster starts (outliers sort first)."""
        order = np.argsort(self.labels, kind="stable")
        starts = np.searchsorted(self.labels[order], np.arange(self.k_clusters + 1))
        return tuple(np.split(order, starts)[1:-1])


@dataclass(frozen=True, eq=False)
class RankedLists:
    """Top-k neighbor indices per sample for one feature space.

    Row i holds the k nearest neighbors of sample i (self excluded),
    ascending by distance with ties broken by smaller index; k is the
    number of columns.
    """

    lists: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.lists)
        if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("lists must be a 2-D integer matrix")
        n, k = arr.shape
        if k < 1:
            raise ValueError("ranked lists need k >= 1")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("neighbor index out of range")
            if np.any(arr == np.arange(n)[:, None]):
                raise ValueError("a ranked list contains its own sample index")
            srt = np.sort(arr, axis=1)
            if k > 1 and np.any(srt[:, 1:] == srt[:, :-1]):
                raise ValueError("duplicate index within a ranked list")
        object.__setattr__(self, "lists", _frozen(arr.astype(np.int64)))

    @property
    def n_samples(self) -> int:
        return self.lists.shape[0]

    @property
    def k(self) -> int:
        return self.lists.shape[1]


@dataclass(frozen=True, eq=False)
class CrossAgreement:
    """Per-sample, per-part agreement scores in [0, 1]."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("scores must be an N x n_parts matrix")
        if not np.all(np.isfinite(arr)):
            raise NumericalError("non-finite agreement score")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("agreement scores must lie in [0, 1]")
        object.__setattr__(self, "scores", _frozen(arr))

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_parts(self) -> int:
        return self.scores.shape[1]

    def mean_per_part(self) -> np.ndarray:
        return self.scores.mean(axis=0)
