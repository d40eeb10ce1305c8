"""DBSCAN over a precomputed distance matrix, plus cluster centroids.

The clustering is fully deterministic: border points that fall within eps
of several clusters join the cluster of the lowest-indexed core point that
reaches them, and final labels are renumbered by each cluster's smallest
member index. Running twice on the same input yields identical vectors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import PseudoLabels, _require_finite
from .neighbors import DistanceMatrix, _row_blocks


@dataclass(frozen=True)
class DbscanParams:
    """eps is a radius on the clustering distance; min_samples counts
    neighbors excluding the point itself."""

    eps: float = 0.6
    min_samples: int = 4

    def __post_init__(self) -> None:
        _require_finite(self, "eps", "min_samples")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


def _eps_neighbours(d: np.ndarray, eps: float):
    """Each row's neighbours within ``eps``, itself excluded, in ascending
    column order, as compressed rows: row pointers and column indices.
    Built one row block at a time, so no N x N mask exists."""
    n = d.shape[0]
    index_type = np.min_scalar_type(max(n - 1, 0))
    counts = np.empty(n, dtype=np.intp)
    cols = [np.zeros(0, dtype=index_type)]  # N = 0 has no block
    for blk in _row_blocks(n):
        near = d[blk] <= eps
        near[np.arange(blk.stop - blk.start), np.arange(blk.start, blk.stop)] = False
        # Flat indices, not np.nonzero's pairs: several times faster.
        rows, block_cols = np.divmod(np.flatnonzero(near), n)
        counts[blk] = np.bincount(rows, minlength=blk.stop - blk.start)
        cols.append(block_cols.astype(index_type))
    return np.concatenate(([0], np.cumsum(counts))), np.concatenate(cols)


def dbscan(dist: DistanceMatrix, params: DbscanParams) -> PseudoLabels:
    """Density-based clustering with standard core/border/noise semantics.

    A point is core iff at least ``min_samples`` other points lie within
    eps. Clusters are the connected components of core points under
    eps-reachability; border points attach to the cluster of their
    lowest-indexed core neighbor; everything else is noise (-1).

    Region queries read a neighbourhood index, as in Ester et al. (KDD
    1996): every row's eps-neighbours, ascending, gathered once from row
    blocks of the matrix. They hold one index per neighbour pair, of at
    most 2 bytes below 65 536 samples, so they are smaller than an N x N
    bool mask unless more than half of all pairs lie within eps. The
    clusters grow breadth first from the core points in index order; each
    step labels the unlabelled core neighbours of one point.
    """
    ptr, cols = _eps_neighbours(dist.values, params.eps)
    core = np.diff(ptr) >= params.min_samples

    labels = np.full(core.size, -1, dtype=np.int64)
    next_id = 0
    for seed in np.flatnonzero(core):
        if labels[seed] >= 0:
            continue
        labels[seed] = next_id
        queue = deque([seed])
        while queue:
            p = queue.popleft()
            near = cols[ptr[p] : ptr[p + 1]]
            reachable = near[core[near] & (labels[near] < 0)]
            labels[reachable] = next_id
            queue.extend(reachable.tolist())
        next_id += 1

    for j in np.flatnonzero(~core):
        near = cols[ptr[j] : ptr[j + 1]]
        claimants = near[core[near]]
        if claimants.size:
            labels[j] = labels[claimants[0]]

    return PseudoLabels(labels=_renumber(labels))


def _renumber(labels: np.ndarray) -> np.ndarray:
    """Canonical ids: clusters ordered by their smallest member index."""
    out = np.full_like(labels, -1)
    seen = {}
    for i, lab in enumerate(labels):
        if lab < 0:
            continue
        if lab not in seen:
            seen[lab] = len(seen)
        out[i] = seen[lab]
    return out


def cluster_centroids(features: np.ndarray, labels: PseudoLabels) -> np.ndarray:
    """K x D matrix of per-cluster feature means; outliers excluded."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] != labels.n_samples:
        raise ValueError("features and labels disagree on N")
    if labels.k_clusters < 1:
        raise ValueError("at least one cluster is required")
    centroids = np.empty((labels.k_clusters, x.shape[1]), dtype=np.float64)
    for b, members in enumerate(labels.cluster_members()):
        centroids[b] = x[members].mean(axis=0)
    return centroids
