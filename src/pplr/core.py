"""Shared domain types: feature banks, pseudo-labels, ranked lists, agreement scores.

Every container in this module is immutable after construction (frozen
dataclass holding read-only arrays: copies of what a caller passes, or for
``FeatureBank._trusted`` the arrays the package has just built), so a
stage can hand an instance to the next without copying it. An invalid
instance cannot exist: the public constructors check in ``__post_init__``,
and each package builder checks its arrays before it hands them to
``FeatureBank._trusted``, which checks nothing again.
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


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values`` itself, frozen in place: for an array that no one else
    holds a writable reference to."""
    values.flags.writeable = False
    return values


def _normalize_rows(m: np.ndarray, describe=lambda row: f"row {row} has") -> np.ndarray:
    """Divide the float64 rows (last axis) of ``m`` in place by their L2
    norms, and return the norms: the package's one row normalization. A
    zero or non-finite norm (a NaN, an infinity or an entry too large to
    square) is a NumericalError naming the first such row by ``describe``."""
    # An overflowing row has an infinite norm; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(m, axis=-1)
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        raise NumericalError(f"{describe(int(bad[0]))} a zero or non-finite norm")
    m /= norms[..., None]
    return norms


def l2_normalize(matrix: np.ndarray) -> np.ndarray:
    """Scale every row of a 2-D matrix to unit Euclidean norm.

    Computation is done in float64 regardless of input dtype so that
    normalizing twice is a no-op to within 1e-12.

    Raises:
        NumericalError: on a row with a zero or non-finite norm (see
            ``_normalize_rows``); the message names the first such row.
    """
    m = np.array(matrix, dtype=np.float64)  # the one copy, divided in place
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    _normalize_rows(m)
    return m


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
                raise ValueError(f"part {idx} has shape {p.shape}, expected {(n, dim)}")
        object.__setattr__(self, "global_feats", _frozen(g))
        object.__setattr__(self, "part_feats", tuple(_frozen(p) for p in parts))
        for space_id, m in self.spaces():
            if not np.all(np.isfinite(m)):
                raise NumericalError(f"non-finite entry in {space_id} features")
            if self.normalized:
                norms = np.linalg.norm(np.asarray(m, dtype=np.float64), axis=1)
                if np.any(np.abs(norms - 1.0) > NORM_ATOL):
                    raise ValueError(
                        f"bank flagged normalized but {space_id} rows are not unit-norm"
                    )
        for name in ("camera_ids", "gt_ids"):
            vec = getattr(self, name)
            if vec is None:
                continue
            arr = np.asarray(vec)
            if arr.shape != (n,) or not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must be a length-{n} integer vector")
            object.__setattr__(self, name, _frozen(arr.astype(np.int64, copy=False)))

    @classmethod
    def _trusted(
        cls, global_feats, part_feats, camera_ids=None, gt_ids=None, normalized=False
    ) -> "FeatureBank":
        """A bank over float matrices of one shape and int64 id vectors that
        a package builder has just made and checked, or that another bank
        holds read-only: frozen in place, neither copied nor checked again."""
        out = object.__new__(cls)
        vars(out).update(
            global_feats=global_feats, part_feats=tuple(part_feats),
            camera_ids=camera_ids, gt_ids=gt_ids, normalized=normalized,
        )
        for m in (global_feats, *part_feats, camera_ids, gt_ids):
            if m is not None:
                _read_only(m)
        return out

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
    """A float64 copy of ``bank`` with every feature row L2-normalized:
    one new array per space, shared ids."""
    mats = [l2_normalize(m) for _, m in bank.spaces()]
    return FeatureBank._trusted(mats[0], mats[1:], bank.camera_ids, bank.gt_ids, normalized=True)


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
        arr = arr.astype(np.int64)  # the one copy, frozen in place below
        if arr.size and arr.min() < -1:
            raise ValueError("labels below -1 are not allowed")
        present = np.unique(arr[arr >= 0])
        if not np.array_equal(present, np.arange(present.size)):
            raise ValueError(
                f"labels must cover 0..K-1 with no gap; found clusters {present.tolist()}"
            )
        object.__setattr__(self, "labels", _read_only(arr))
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
        object.__setattr__(self, "lists", _read_only(arr.astype(np.int64)))

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
