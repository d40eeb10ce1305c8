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
from .neighbors import DistanceMatrix


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


def dbscan(dist: DistanceMatrix, params: DbscanParams) -> PseudoLabels:
    """Density-based clustering with standard core/border/noise semantics.

    A point is core iff at least ``min_samples`` other points lie within
    eps. Clusters are the connected components of core points under
    eps-reachability; border points attach to the cluster of their
    lowest-indexed core neighbor; everything else is noise (-1).
    """
    d = dist.values
    n = d.shape[0]
    adjacency = d <= params.eps
    np.fill_diagonal(adjacency, False)
    core = adjacency.sum(axis=1) >= params.min_samples

    labels = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for seed in range(n):
        if not core[seed] or labels[seed] >= 0:
            continue
        labels[seed] = next_id
        queue = deque([seed])
        while queue:
            p = queue.popleft()
            reachable = np.flatnonzero(adjacency[p] & core & (labels < 0))
            labels[reachable] = next_id
            queue.extend(reachable.tolist())
        next_id += 1

    core_idx = np.flatnonzero(core)
    for j in np.flatnonzero(~core):
        claimants = core_idx[adjacency[j, core_idx]]
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
