"""Pairwise distances, exact top-k ranked lists, and the k-reciprocal
Jaccard distance used as the clustering metric.

Everything here is exact search, worked in blocks of ``_BLOCK_ROWS`` rows.
A call holds its N x N float64 result and block-sized temporaries:
:func:`pairwise_sq_euclidean` and :func:`topk_ranked_lists` one N x N
matrix, :func:`k_reciprocal_jaccard` two (the normalized distance and the
output), with its encoding kept sparse. Only the dense results stand in
the way of larger banks.

The squared distances are ``(|x_i|^2 + |x_j|^2) - 2 x_i.x_j`` over one
Gram matrix ``x @ x.T`` of C-contiguous features, which numpy computes as
a symmetric rank-k update (BLAS ``syrk``) and mirrors across the diagonal,
so entries (i, j) and (j, i) are the same bits. The matrix is therefore
exactly symmetric, and a ``(D + D^T) / 2`` pass would change no bit; none
is done. The Gram matrix is taken in one call, not per row block: a
block product ``x[rows] @ x.T`` is a general product, which BLAS may
round differently in the last bit (OpenBLAS does for small blocks).

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
from typing import List, Tuple

import numpy as np

from .core import NumericalError, RankedLists, _frozen

SYMMETRY_ATOL = 1e-6

# Rows per block of the row-blocked passes: block temporaries stay at
# _BLOCK_ROWS x N however large N grows.
_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric N x N dissimilarity with a zero diagonal."""

    values: np.ndarray

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
        object.__setattr__(self, "values", _frozen(arr))

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "DistanceMatrix":
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
        return out

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


def _row_blocks(n: int) -> List[slice]:
    """Consecutive slices of at most ``_BLOCK_ROWS`` rows that cover 0..n."""
    return [slice(s, min(s + _BLOCK_ROWS, n)) for s in range(0, n, _BLOCK_ROWS)]


def pairwise_sq_euclidean(features: np.ndarray) -> DistanceMatrix:
    """All-pairs squared Euclidean distances with an exact zero diagonal.

    The Gram matrix is the output buffer; each row block is then turned
    into ``(sq_i + sq_j) - 2 g_ij``, clamped at 0, in place. Features are
    made C-contiguous first: on a strided operand numpy computes
    ``x @ x.T`` as a general product, which need not be symmetric."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite feature entry")
    # Huge features overflow here; the finiteness check of _trusted reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", x, x)
        d = x @ x.T
        for blk in _row_blocks(d.shape[0]):
            rows = d[blk]
            rows *= 2.0
            np.subtract(sq[blk, None] + sq, rows, out=rows)
            np.maximum(rows, 0.0, out=rows)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix._trusted(d)


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
    lists = np.empty((n, k), dtype=np.intp)
    buffer = np.empty((min(_BLOCK_ROWS, n), n))
    for blk in _row_blocks(n):
        masked = buffer[: blk.stop - blk.start]
        masked[...] = dist.values[blk]
        masked[np.arange(masked.shape[0]), np.arange(blk.start, blk.stop)] = np.inf
        lists[blk] = _stable_topk(masked, k)
    return RankedLists(space_id=space_id, k=k, lists=lists)


def _gather(ptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Over every stored entry of the compressed rows ``rows`` (row pointers
    ``ptr``), in row order: the position in ``rows`` and the storage index."""
    lengths = ptr[rows + 1] - ptr[rows]
    which = np.repeat(np.arange(rows.size), lengths)
    pos = np.repeat(ptr[rows] - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(pos.size)
    return which, pos


def _pointers(sorted_rows: np.ndarray, n: int) -> np.ndarray:
    """Row pointers (length n + 1) of entries sorted by row."""
    return np.searchsorted(sorted_rows, np.arange(n + 1))


def _reciprocal_pairs(rank: np.ndarray, depth: int) -> np.ndarray:
    """Sorted keys ``i * N + j`` of the pairs in which i and j each list the
    other within the first ``depth`` positions of their rankings (the own
    index included)."""
    n = rank.shape[0]
    keys = np.sort((np.arange(n)[:, None] * n + rank[:, :depth]).ravel())
    return keys[np.isin(keys % n * n + keys // n, keys)]


def _expanded_sets(
    recip: np.ndarray, recip_half: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's reciprocal set joined with every half-width set of a
    member q that has at least two thirds of its members in the row's set;
    from pair keys as in :func:`_reciprocal_pairs` to (rows, columns) in
    row-major order, one boolean row block at a time."""
    h_rows, h_cols = np.divmod(recip_half, n)
    h_ptr = _pointers(h_rows, n)
    r_rows, r_cols = np.divmod(recip, n)
    r_ptr = _pointers(r_rows, n)
    rows, cols = [], []
    for blk in _row_blocks(n):
        span = slice(r_ptr[blk.start], r_ptr[blk.stop])
        local, qs = r_rows[span] - blk.start, r_cols[span]
        member = np.zeros((blk.stop - blk.start, n), dtype=bool)
        member[local, qs] = True
        pair, pos = _gather(h_ptr, qs)
        overlap = np.bincount(pair[member[local[pair], h_cols[pos]]], minlength=qs.size)
        taken = (3 * overlap >= 2 * (h_ptr[qs + 1] - h_ptr[qs]))[pair]
        member[local[pair[taken]], h_cols[pos[taken]]] = True
        r, c = np.nonzero(member)
        rows.append(r + blk.start)
        cols.append(c)
    return np.concatenate(rows), np.concatenate(cols)


def _encoding(dist: np.ndarray, rank: np.ndarray, k1: int) -> Tuple[np.ndarray, ...]:
    """Steps 1-3 of :func:`k_reciprocal_jaccard`: V in compressed rows,
    as row pointers, column indices and weights."""
    n = rank.shape[0]
    recip = _reciprocal_pairs(rank, k1 + 1)
    recip_half = _reciprocal_pairs(rank, int(round(k1 / 2)) + 1)
    rows, cols = _expanded_sets(recip, recip_half, n)
    ptr = _pointers(rows, n)
    vals = np.exp(-dist[rows, cols])
    for i in range(n):
        weights = vals[ptr[i] : ptr[i + 1]]
        weights /= weights.sum()
    return ptr, cols, vals


def _query_expansion(
    encoding: Tuple[np.ndarray, ...], rank: np.ndarray, k2: int
) -> Tuple[np.ndarray, ...]:
    """Step 4 of :func:`k_reciprocal_jaccard` on dense row blocks of V.
    Returns the row sums of the result and the result in compressed
    columns: column pointers, row indices (ascending within a column) and
    weights."""
    ptr, cols, vals = encoding
    n = rank.shape[0]
    row_sums = np.empty(n)
    e_rows, e_cols, e_vals = [], [], []
    for blk in _row_blocks(n):
        sources = rank[blk, :k2].T if k2 > 1 else [np.arange(blk.start, blk.stop)]
        dense = np.zeros((blk.stop - blk.start, n))
        for src in sources:
            which, pos = _gather(ptr, src)
            dense[which, cols[pos]] += vals[pos]
        if k2 > 1:
            dense /= k2
        row_sums[blk] = dense.sum(axis=1)
        r, c = np.nonzero(dense)
        e_rows.append(r + blk.start)
        e_cols.append(c)
        e_vals.append(dense[r, c])
    flat_cols = np.concatenate(e_cols)
    by_col = np.argsort(flat_cols, kind="stable")
    col_ptr = _pointers(flat_cols[by_col], n)
    return row_sums, col_ptr, np.concatenate(e_rows)[by_col], np.concatenate(e_vals)[by_col]


def _sums_of_minima(expanded: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Step 5's sums of minima, accumulated into a fresh N x N buffer one
    column of V at a time, and the row sums passed through."""
    row_sums, col_ptr, col_rows, col_vals = expanded
    n = row_sums.size
    out = np.zeros((n, n), dtype=np.float64)
    for m in range(n):
        support = col_rows[col_ptr[m] : col_ptr[m + 1]]
        if support.size:
            weights = col_vals[col_ptr[m] : col_ptr[m + 1]]
            np.add.at(out, np.ix_(support, support), np.minimum.outer(weights, weights))
    return out, row_sums


def _jaccard_blend(
    out: np.ndarray, row_sums: np.ndarray, dist: np.ndarray, blend_lambda: float
) -> None:
    """Steps 5-6 of :func:`k_reciprocal_jaccard` in place, one row block at
    a time: ``out`` holds the sums of minima on entry, the clipped blend
    with a zero diagonal on exit."""
    n = out.shape[0]
    buffer = np.empty((min(_BLOCK_ROWS, n), n))
    for blk in _row_blocks(n):
        rows = out[blk]
        scratch = buffer[: rows.shape[0]]
        np.add(row_sums[blk, None], row_sums, out=scratch)
        scratch -= rows  # sums of maxima
        # Two empty encodings divide 0 by 0; _trusted reports the NaN.
        with np.errstate(invalid="ignore"):
            np.divide(rows, scratch, out=rows)
        np.subtract(1.0, rows, out=rows)
        rows *= 1.0 - blend_lambda
        np.multiply(dist[blk], blend_lambda, out=scratch)
        rows += scratch
    np.clip(out, 0.0, 1.0, out=out)
    np.fill_diagonal(out, 0.0)


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
    6. blend with the normalized Euclidean matrix by ``blend_lambda``.

    Rankings are the first k1 + 1 columns of a stable row sort of the
    normalized distances (see :func:`_stable_topk`): ties go to the smaller
    index, and with duplicate rows a sample's own index need not come
    first. Every later step reads only that prefix.

    Memory: two N x N float64 matrices, the normalized distance and the
    output. The sets of steps 1-2 are sorted pair keys, and V is held as
    per-row (index, weight) arrays. Step 4 and the row sums run on one
    dense row block of V at a time: a running sum over the k2 ranked rows,
    one division by k2, then a pairwise row sum over all N columns, the
    bits of ``v.sum(axis=1)`` over the dense matrix.

    The sum of minima in step 5 is accumulated into the output buffer one
    column m of V at a time (read from a column-major copy of V), over the
    pairs of rows in that column's support. A pair (i, j) thus receives its
    terms in ascending m, the order of a per-pair sum over m, so the result
    does not depend on how the work is batched. Each row block of the
    buffer then becomes the Jaccard distance, the blend and the clip in
    place. Every term is symmetric in (i, j), so the result is exactly
    symmetric and needs no ``(D + D^T) / 2``.
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
    if dmax > 0:
        dist = dist / dmax  # the unnormalized matrix is released here
    rank = np.empty((n, k1 + 1), dtype=np.intp)
    for blk in _row_blocks(n):
        rank[blk] = _stable_topk(dist[blk], k1 + 1)
    # Nested, so that each stage's arrays are freed before the output exists.
    out, row_sums = _sums_of_minima(_query_expansion(_encoding(dist, rank, k1), rank, k2))
    _jaccard_blend(out, row_sums, dist, blend_lambda)
    return DistanceMatrix._trusted(out)
