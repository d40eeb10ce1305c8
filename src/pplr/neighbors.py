"""Pairwise distances, exact top-k ranked lists, and the k-reciprocal
Jaccard distance used as the clustering metric.

Everything here is exact search; the target scale is a few thousand
samples, so N x N float64 matrices are fine.

Ranking never sorts a whole row. :func:`_stable_topk` finds each row's
k-th smallest value with ``np.partition``, keeps every entry at or below
it (so all ties at the cut-off are kept), and stable-sorts only those
candidates by value. Candidates enter the sort in ascending column order,
so equal values keep the smaller index first, exactly as in a stable
argsort of the full row; this holds for duplicate rows too, where a
sample's own index can sit behind an equal neighbour.

Matrices built here are symmetric, non-negative and zero on the diagonal
by construction, so they skip the copy and the shape, sign and symmetry
checks of :class:`DistanceMatrix` and are only checked to be finite; a
matrix passed in from outside is still checked in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, RankedLists, _frozen

METRIC_SQ_EUCLIDEAN = "squared-euclidean"
METRIC_JACCARD = "jaccard"

SYMMETRY_ATOL = 1e-6


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric N x N dissimilarity with a zero diagonal."""

    values: np.ndarray
    metric: str = METRIC_SQ_EUCLIDEAN

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise NumericalError("non-finite distance entry")
        if np.any(np.diagonal(arr) != 0.0):
            raise ValueError("distance matrix diagonal must be exactly zero")
        if arr.size and arr.min() < 0.0:
            raise ValueError("negative distance entry")
        if np.abs(arr - arr.T).max(initial=0.0) > SYMMETRY_ATOL:
            raise ValueError("distance matrix is not symmetric")
        if self.metric == METRIC_JACCARD and arr.size and arr.max() > 1.0 + 1e-12:
            raise ValueError("jaccard distances must lie in [0, 1]")
        object.__setattr__(self, "values", _frozen(arr))

    @classmethod
    def _trusted(cls, values: np.ndarray, metric: str) -> "DistanceMatrix":
        """Wrap a float64 matrix that this module built and owns: frozen in
        place, without the copy of ``__post_init__``. Of its checks only
        finiteness remains, the one invariant that construction does not
        guarantee (squared norms can overflow; a k-reciprocal encoding
        with two empty rows divides 0 by 0)."""
        if not np.isfinite(values).all():
            raise NumericalError("non-finite distance entry")
        out = object.__new__(cls)
        values.flags.writeable = False
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "metric", metric)
        return out

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


def pairwise_sq_euclidean(features: np.ndarray) -> DistanceMatrix:
    """All-pairs squared Euclidean distances with an exact zero diagonal."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite feature entry")
    sq = np.einsum("ij,ij->i", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d, 0.0, out=d)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix._trusted(d, METRIC_SQ_EUCLIDEAN)


def _stable_topk(values: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of ``np.argsort(values, axis=1, kind="stable")``,
    found without sorting whole rows (1 <= k <= number of columns)."""
    kth = np.partition(values, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(values <= kth[:, None])
    order = np.lexsort((values[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(values.shape[0]))
    return cols[order][starts[:, None] + np.arange(k)]


def topk_ranked_lists(dist: DistanceMatrix, k: int, space_id: str) -> RankedLists:
    """Top-k neighbor lists per row, ascending distance, ties to smaller index."""
    n = dist.n_samples
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < N; got k={k}, N={n}")
    masked = dist.values.copy()
    np.fill_diagonal(masked, np.inf)
    return RankedLists(space_id=space_id, k=k, lists=_stable_topk(masked, k))


def _top_membership(rank: np.ndarray, depth: int) -> np.ndarray:
    """Boolean matrix: entry (i, j) true iff j is within the first ``depth``
    positions of row i's ranking (the row's own index included)."""
    n = rank.shape[0]
    member = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), depth)
    member[rows, rank[:, :depth].ravel()] = True
    return member


def _expanded_sets(recip: np.ndarray, recip_half: np.ndarray) -> np.ndarray:
    """Row i of ``recip`` joined with every half-width set ``recip_half[q]``,
    q in row i, that has at least two thirds of its members in row i."""
    n = recip.shape[0]
    # Members of each half-width set, padded with index n: an extra column
    # that is false when read and ignored when written.
    h_rows, h_cols = np.nonzero(recip_half)
    sizes = np.bincount(h_rows, minlength=n)
    members = np.full((n, sizes.max()), n)
    members[h_rows, np.arange(h_rows.size) - (np.cumsum(sizes) - sizes)[h_rows]] = h_cols
    out = np.zeros((n, n + 1), dtype=bool)
    out[:, :n] = recip
    rows, qs = np.nonzero(recip)
    candidates = members[qs]
    overlap = np.count_nonzero(out[rows[:, None], candidates], axis=1)
    taken = 3 * overlap >= 2 * sizes[qs]
    out[rows[taken, None], candidates[taken]] = True
    return out[:, :n]


def k_reciprocal_jaccard(
    features: np.ndarray,
    k1: int = 30,
    k2: int = 6,
    blend_lambda: float = 0.0,
) -> DistanceMatrix:
    """Re-ranked clustering distance built from k-reciprocal neighbor sets.

    Steps, operating on min-max-normalized squared Euclidean distances:

    1. reciprocal sets: j belongs to R(i, k1) iff i and j appear in each
       other's top-(k1+1) ranking (the +1 absorbs the self entry);
    2. expansion: each member q contributes its half-width set R(q, k1/2)
       when at least two thirds of that candidate set already overlaps
       R(i, k1);
    3. encoding: sparse vector V_i with weights exp(-d(i, j)) over the
       expanded set, normalized to sum 1;
    4. local query expansion: V_i is replaced by the mean of V over the
       top-k2 ranked originals;
    5. jaccard(i, j) = 1 - sum(min(V_i, V_j)) / sum(max(V_i, V_j));
    6. blend with the normalized Euclidean matrix by ``blend_lambda`` and
       symmetrize as (D + D^T) / 2.

    Rankings are the first k1 + 1 columns of a stable row sort of the
    normalized distances (see :func:`_stable_topk`): ties go to the smaller
    index, and with duplicate rows a sample's own index need not come
    first. Every later step reads only that prefix.

    The sum of minima in step 5 is accumulated one column m of V at a time,
    over the pairs of rows in that column's support. A pair (i, j) thus
    receives its terms in ascending m, the order of a per-pair sum over m,
    so the result does not depend on how the work is batched. Step 4 is a
    running sum over the k2 ranked rows, then one division by k2.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k1 < n:
        raise ValueError(f"k1 must satisfy 1 <= k1 < N; got k1={k1}, N={n}")
    if not 1 <= k2 <= k1:
        raise ValueError(f"k2 must satisfy 1 <= k2 <= k1; got k2={k2}")
    if not 0.0 <= blend_lambda <= 1.0:
        raise ValueError("blend_lambda must lie in [0, 1]")

    dist = pairwise_sq_euclidean(x).values
    dmax = dist.max()
    norm_dist = dist / dmax if dmax > 0 else dist.copy()
    rank = _stable_topk(norm_dist, k1 + 1)

    in_top = _top_membership(rank, k1 + 1)
    recip = in_top & in_top.T
    half = int(round(k1 / 2))
    in_top_half = _top_membership(rank, half + 1)
    recip_half = in_top_half & in_top_half.T

    v = np.zeros((n, n), dtype=np.float64)
    for i, expanded in enumerate(_expanded_sets(recip, recip_half)):
        idx = np.flatnonzero(expanded)
        weights = np.exp(-norm_dist[i, idx])
        v[i, idx] = weights / weights.sum()

    if k2 > 1:
        total = v[rank[:, 0]]
        for t in range(1, k2):
            total += v[rank[:, t]]
        v = total / k2

    row_sums = v.sum(axis=1)
    min_sums = np.zeros((n, n), dtype=np.float64)
    for col in np.ascontiguousarray(v.T):
        support = np.flatnonzero(col)
        weights = col[support]
        min_sums[np.ix_(support, support)] += np.minimum.outer(weights, weights)
    max_sums = row_sums[:, None] + row_sums[None, :] - min_sums
    jaccard = 1.0 - min_sums / max_sums

    final = (1.0 - blend_lambda) * jaccard + blend_lambda * norm_dist
    final = 0.5 * (final + final.T)
    np.clip(final, 0.0, 1.0, out=final)
    np.fill_diagonal(final, 0.0)
    return DistanceMatrix._trusted(final, METRIC_JACCARD)
