"""Retrieval metrics (mAP, CMC) and label-quality metrics against ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .core import NoValidQueryError
from .neighbors import _row_blocks

DEFAULT_RANKS = (1, 5, 10)


@dataclass(frozen=True, eq=False)
class RetrievalResult:
    """mAP plus CMC at the requested ranks, over the valid queries."""

    map: float
    cmc: Dict[int, float]
    n_queries: int
    n_excluded: int = 0

    def __post_init__(self) -> None:
        ranks = sorted(self.cmc)
        values = [self.cmc[r] for r in ranks]
        if any(not 0.0 <= v <= 1.0 for v in values + [self.map]):
            raise ValueError("metrics must lie in [0, 1]")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("CMC must be nondecreasing in rank")

    def to_json_dict(self) -> Dict[str, float]:
        out = {"mAP": self.map}
        for r in sorted(self.cmc):
            out[f"CMC@{r}"] = self.cmc[r]
        return out


@dataclass(frozen=True, eq=False)
class LabelQuality:
    """Pseudo-label quality relative to ground-truth identities.

    accuracy: fraction of all samples whose cluster maps to their identity
    under majority vote (outliers can never be correct);
    pairwise_f: F-score of same-cluster versus same-identity pairs;
    outlier_fraction: share of samples labeled -1.
    """

    accuracy: float
    pairwise_f: float
    outlier_fraction: float


def average_precision(ranked_relevance: Sequence[bool]) -> float:
    """AP of one ranked gallery: mean precision at each relevant position.

    Requires at least one relevant item; queries with none must be
    excluded upstream.
    """
    rel = np.asarray(ranked_relevance, dtype=bool)
    n_rel = int(rel.sum())
    if n_rel == 0:
        raise ValueError("average_precision requires at least one relevant item")
    cum_hits = np.cumsum(rel)
    positions = np.flatnonzero(rel) + 1
    return float((cum_hits[positions - 1] / positions).sum() / n_rel)


def map_cmc(
    query_feats: np.ndarray,
    gallery_feats: np.ndarray,
    query_ids: np.ndarray,
    gallery_ids: np.ndarray,
    query_cams: np.ndarray,
    gallery_cams: np.ndarray,
    ranks: Tuple[int, ...] = DEFAULT_RANKS,
) -> RetrievalResult:
    """Cross-camera retrieval evaluation.

    Galleries are ranked by ascending Euclidean distance (ties broken by
    gallery index). For each query, gallery entries sharing both its
    identity and its camera are removed before scoring, so matches only
    count across cameras; a query left without any positive is excluded
    and counted in ``n_excluded``.

    Queries are ranked one block of rows at a time (see
    :func:`pplr.neighbors._row_blocks`): the call holds a block's distance
    and order arrays, never a query x gallery matrix, and each block's
    arrays are freed before the next block is ranked.

    Raises:
        NoValidQueryError: when every query is excluded.
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    q_ids = np.asarray(query_ids)
    g_ids = np.asarray(gallery_ids)
    q_cams = np.asarray(query_cams)
    g_cams = np.asarray(gallery_cams)
    if q.shape[0] != q_ids.size or g.shape[0] != g_ids.size:
        raise ValueError("feature/id count mismatch")

    sq_q = np.einsum("ij,ij->i", q, q)
    sq_g = np.einsum("ij,ij->i", g, g)

    def relevance_rows(blk: slice) -> list:
        """Per query of the block: the relevance of its ranked gallery,
        same-identity same-camera entries removed."""
        # Squared distances rank identically to Euclidean ones.
        dist = q[blk] @ g.T
        dist *= 2.0
        np.subtract(sq_q[blk, None] + sq_g, dist, out=dist)
        order = np.argsort(dist, axis=1, kind="stable")
        rows = []
        for i, ranked in zip(range(blk.start, blk.stop), order):
            keep = ~((g_ids[ranked] == q_ids[i]) & (g_cams[ranked] == q_cams[i]))
            rows.append((g_ids[ranked] == q_ids[i])[keep])
        return rows

    aps = []
    cmc_hits = {r: 0 for r in ranks}
    n_excluded = 0
    for blk in _row_blocks(q.shape[0]):
        for relevance in relevance_rows(blk):
            if not relevance.any():
                n_excluded += 1
                continue
            aps.append(average_precision(relevance))
            first_hit = int(np.flatnonzero(relevance)[0])
            for r in ranks:
                if first_hit < r:
                    cmc_hits[r] += 1
    n_valid = len(aps)
    if n_valid == 0:
        raise NoValidQueryError("no query has a valid cross-camera positive")
    return RetrievalResult(
        map=float(np.mean(aps)),
        cmc={r: cmc_hits[r] / n_valid for r in ranks},
        n_queries=n_valid,
        n_excluded=n_excluded,
    )


def label_quality(labels: np.ndarray, gt_ids: np.ndarray) -> LabelQuality:
    """Score a hard labeling (cluster ids, -1 for outliers) against gt ids.

    Refined soft labels are scored by passing their argmax. Conventions:
    the accuracy denominator is all N samples; majority-vote ties go to
    the smaller identity; outliers (including pairs of outliers) never
    count as same-cluster.
    """
    lab = np.asarray(labels)
    gt = np.asarray(gt_ids)
    if gt is None or lab.shape != gt.shape or lab.ndim != 1:
        raise ValueError("labels and gt_ids must be matching 1-D vectors")
    n = lab.size
    if n == 0:
        raise ValueError("empty labeling")
    clustered = lab >= 0
    outlier_fraction = float(np.count_nonzero(~clustered) / n)

    # The non-zero cells of the (cluster x identity) count table of the
    # clustered samples; a cluster's majority identity holds its largest cell.
    ids, gt_index = np.unique(gt, return_inverse=True)
    clusters, cluster_index = np.unique(lab[clustered], return_inverse=True)
    cells, counts = np.unique(
        cluster_index * ids.size + gt_index[clustered], return_counts=True
    )
    majority = np.zeros(clusters.size, dtype=np.int64)
    np.maximum.at(majority, cells // ids.size, counts)
    sizes = np.bincount(cluster_index, minlength=clusters.size)
    accuracy = int(majority.sum()) / n
    tp = int((counts * (counts - 1) // 2).sum())
    pred_pairs = int((sizes * (sizes - 1) // 2).sum())
    gt_counts = np.bincount(gt_index)
    gt_pairs = int((gt_counts * (gt_counts - 1) // 2).sum())
    precision = tp / pred_pairs if pred_pairs else 0.0
    recall = tp / gt_pairs if gt_pairs else 0.0
    f_score = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return LabelQuality(
        accuracy=float(accuracy),
        pairwise_f=float(f_score),
        outlier_fraction=outlier_fraction,
    )
