"""Retrieval metrics (mAP, CMC) and label-quality metrics against ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .core import NoValidQueryError
from .neighbors import _ranges, _ranked, _segment_sums, _sq_distance_rows

DEFAULT_RANKS = (1, 5, 10)


@dataclass(frozen=True, eq=False)
class RetrievalResult:
    """mAP plus CMC at each rank keyed in ``cmc``, over the valid queries."""

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


def map_cmc(
    query_feats: np.ndarray,
    gallery_feats: np.ndarray,
    query_ids: np.ndarray,
    gallery_ids: np.ndarray,
    query_cams: np.ndarray,
    gallery_cams: np.ndarray,
) -> RetrievalResult:
    """Cross-camera retrieval evaluation: mAP and CMC at ``DEFAULT_RANKS``.

    Galleries are ranked by ascending Euclidean distance (ties broken by
    gallery index). For each query, gallery entries sharing both its
    identity and its camera are removed before scoring, so matches only
    count across cameras; a query left without any positive is excluded
    and counted in ``n_excluded``.

    AP and CMC read nothing after a query's last positive, so only the
    kept entries at or below its farthest cross-camera positive distance
    are ranked: taken in ascending gallery order and stable-sorted by
    distance, they are the prefix of the full ranking up to that positive
    (entries tied with it at a larger index sort after it and add only
    trailing non-matches).

    Queries are ranked one block of rows at a time, by the unclamped
    squared distances of :func:`pplr.neighbors._sq_distance_rows`, the
    kernel of ``pairwise_sq_euclidean``: the same bits at every block
    size and BLAS thread count tested, and never a query x gallery
    matrix. A query's same-identity gallery entries are one range of the
    gallery sorted by identity, so only they are tested for a shared
    camera and a largest distance. Each block is ranked by
    :func:`pplr.neighbors._ranked`, as the top-k lists are. CMC reads each
    query's first positive; AP sums its precisions in rank order with the
    bits of a 1-D sum, and mAP averages the APs in query order.

    Raises:
        ValueError: when an id or camera vector's length is not its side's count.
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
    if q_cams.size != q_ids.size or g_cams.size != g_ids.size:
        raise ValueError("feature/camera count mismatch")

    # Gallery rows grouped by identity: a query's same-identity rows are
    # one slice of ``by_id``.
    by_id = np.argsort(g_ids)
    sorted_ids = g_ids[by_id]

    # Per query, its number of positives; per positive, in query order and
    # then rank order, its 0-based rank in the query's ranked gallery.
    n_pos, ranks = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    # Squared distances rank identically to Euclidean ones.
    for blk, dist in _sq_distance_rows(q, g):
        # Each query's same-identity gallery entries as (row, column) pairs;
        # those that share its camera are junk, the rest its positives.
        lo = np.searchsorted(sorted_ids, q_ids[blk], side="left")
        sizes = np.searchsorted(sorted_ids, q_ids[blk], side="right") - lo
        id_rows, pos = _ranges(lo, sizes)
        id_cols = by_id[pos]
        junk = q_cams[blk][id_rows] == g_cams[id_cols]
        far = np.full(lo.size, -np.inf)
        np.maximum.at(far, id_rows[~junk], dist[id_rows[~junk], id_cols[~junk]])
        kept = dist <= far[:, None]
        kept[id_rows[junk], id_cols[junk]] = False
        rows, cols = _ranked(dist, kept)
        hits = np.flatnonzero(g_ids[cols] == q_ids[blk][rows])
        starts = np.searchsorted(rows, np.arange(lo.size))
        hit_rows = rows[hits]
        n_pos.append(np.bincount(hit_rows, minlength=lo.size))
        ranks.append(hits - starts[hit_rows])
    n_pos, ranks = np.concatenate(n_pos), np.concatenate(ranks)
    valid = n_pos > 0
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise NoValidQueryError("no query has a valid cross-camera positive")
    n_pos = n_pos[valid]
    firsts = np.cumsum(n_pos) - n_pos  # each valid query's first positive
    # Precision at each positive: its ordinal among the query's positives
    # over its rank, both counted from 1.
    ordinal = np.arange(ranks.size) - np.repeat(firsts, n_pos)
    precision = (ordinal + 1) / (ranks + 1)
    # AP: the 1-D sum of each query's precisions in rank order.
    aps = _segment_sums(precision, firsts, n_pos) / n_pos
    first_hit = ranks[firsts]
    return RetrievalResult(
        map=float(np.mean(aps)),
        cmc={r: int(np.count_nonzero(first_hit < r)) / n_valid for r in DEFAULT_RANKS},
        n_queries=n_valid,
        n_excluded=int(valid.size - n_valid),
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
    if lab.shape != gt.shape or lab.ndim != 1:
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
