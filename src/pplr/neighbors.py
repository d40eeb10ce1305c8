"""Pairwise distances, exact top-k ranked lists, and the k-reciprocal
Jaccard distance used as the clustering metric.

Everything here is exact search, worked in blocks of ``_BLOCK_ROWS`` (32)
rows or, in the k-reciprocal set expansion and sum of minima, in chunks
of ``_CHUNK_TRIPLES`` gathered index triples. Besides block- and
chunk-sized temporaries (a float64 row block is 0.6 MB at N = 2400),
:func:`pairwise_sq_euclidean` and :func:`topk_ranked_lists` hold one
N x N float64 matrix, and :func:`k_reciprocal_jaccard` one at
``blend_lambda == 0`` and two otherwise.

Every squared distance ``(|a_i|^2 + |b_j|^2) - 2 a_i.b_j``, here and in
``map_cmc``, comes from one kernel, :func:`_sq_distance_rows`, whose Gram
products all have one shape per call: a 32-row slab, zero-padded, times
the zero-padded ``b^T``. Its bits therefore depend neither on the row
block size nor, with OpenBLAS 0.3.31, on the BLAS thread count (1 and 2
threads tested), and entries (i, j) and (j, i) are the same products in
the same order, so the pairwise matrix is exactly symmetric. Where N is a
multiple of 8 these are the bits of one whole ``x @ x.T``.

Ranking never sorts a whole row: :func:`_ranked` orders a mask's entries
as a stable argsort of each row would, for :func:`_stable_topk` and
``map_cmc``, which shares :func:`_ranges` and :func:`_segment_sums` with
the k-reciprocal encoding.

Matrices built here are symmetric, non-negative and zero on the diagonal
by construction, so they skip the copy and the shape, sign and symmetry
checks of :class:`DistanceMatrix` and are only checked to be finite, one
row block at a time; a matrix passed in from outside is still checked in
full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .core import NumericalError, RankedLists, _frozen, _read_only

SYMMETRY_ATOL = 1e-6

# Rows per block of the row-blocked passes: block temporaries stay at
# _BLOCK_ROWS x N however large N grows: 0.6 MB per float64 or index
# array at N = 2400, small next to the N x N results.
_BLOCK_ROWS = 32

# Rows of every Gram product of _sq_distance_rows, whatever the block size.
_SLAB_ROWS = 32

# Index triples per chunk of the chunked k-reciprocal passes (the set
# expansion and the sum of minima): chunk temporaries stay under 1 MB
# however large N grows. At N = 2400, chunks of 2^16 and more were slower.
_CHUNK_TRIPLES = 1 << 14


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
        with two empty rows divides 0 by 0), checked one row block at a
        time."""
        for blk in _row_blocks(values.shape[0]):
            if not np.isfinite(values[blk]).all():
                raise NumericalError("non-finite distance entry")
        out = object.__new__(cls)
        object.__setattr__(out, "values", _read_only(values))
        return out

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


def _row_blocks(n: int) -> List[slice]:
    """Consecutive slices of at most ``_BLOCK_ROWS`` rows that cover 0..n."""
    return [slice(s, min(s + _BLOCK_ROWS, n)) for s in range(0, n, _BLOCK_ROWS)]


def _sq_distance_rows(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Row block by row block of the float64 matrix ``a`` (see
    :func:`_row_blocks`): the block and its rows of ``(|a_i|^2 + |b_j|^2)
    - 2 a_i.b_j``, unclamped, in ``out[blk]`` or else in a new array. Each
    Gram product is a ``_SLAB_ROWS``-row slab of ``a``, held transposed and
    zero-padded, times the transpose of ``b``'s rows, C-contiguous and
    zero-padded to a multiple of ``_SLAB_ROWS``, into one reused scratch.
    With ``a is b``, the squared norms of ``b``'s C-contiguous rows serve
    as ``a``'s."""
    nb = b.shape[0]
    bp = b  # C-contiguous rows, zero-padded to a multiple of _SLAB_ROWS
    if nb % _SLAB_ROWS or not b.flags.c_contiguous:
        bp = np.zeros((-(-nb // _SLAB_ROWS) * _SLAB_ROWS, b.shape[1]))
        bp[:nb] = b
    sq_b = np.einsum("ij,ij->i", bp[:nb], bp[:nb])
    sq_a = sq_b if a is b else np.einsum("ij,ij->i", a, a)
    slab = np.zeros((a.shape[1], _SLAB_ROWS))  # the slab's transpose
    gram = np.empty((_SLAB_ROWS, bp.shape[0]))
    for blk in _row_blocks(a.shape[0]):
        rows = np.empty((blk.stop - blk.start, nb)) if out is None else out[blk]
        rows[...] = sq_b  # then sq_j + sq_i, the bits of sq_i + sq_j, in two
        rows += sq_a[blk, None]  # passes: faster than one broadcast add
        for start in range(blk.start, blk.stop, _SLAB_ROWS):
            stop = min(start + _SLAB_ROWS, blk.stop)
            slab[:, : stop - start] = a[start:stop].T
            slab[:, stop - start :] = 0.0
            np.matmul(slab.T, bp.T, out=gram)
            gram *= 2.0
            rows[start - blk.start : stop - blk.start] -= gram[: stop - start, :nb]
        yield blk, rows


def pairwise_sq_euclidean(features: np.ndarray) -> DistanceMatrix:
    """All-pairs squared Euclidean distances by :func:`_sq_distance_rows`,
    clamped at 0, with an exact zero diagonal: exactly symmetric, with the
    same bits at every row block size and BLAS thread count tested."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite feature entry")
    d = np.empty((x.shape[0], x.shape[0]))
    # Huge features overflow here; the finiteness check of _trusted reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _, rows in _sq_distance_rows(x, x, out=d):
            np.maximum(rows, 0.0, out=rows)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix._trusted(d)


def _ranked(values: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The entries of ``values`` where ``mask`` is set, as (rows, columns):
    rows ascending, and each row's columns in the order of a stable argsort
    of its selected values (ties to the smaller column). A stable sort by
    value, then a stable (radix) sort by the small-integer row; the rows
    are already sorted, so they come back as found."""
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])
    order = np.argsort(values[rows, cols], kind="stable")
    by_row = rows[order].astype(np.min_scalar_type(mask.shape[0]))
    return rows, cols[order[np.argsort(by_row, kind="stable")]]


def _stable_topk(values: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of ``np.argsort(values, axis=1, kind="stable")``,
    found without sorting whole rows (1 <= k <= number of columns), one
    row block at a time: every entry at or below its row's k-th smallest
    value, ranked."""
    top = np.empty((values.shape[0], k), dtype=np.intp)
    for blk in _row_blocks(values.shape[0]):
        block = values[blk]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1]
        rows, cols = _ranked(block, block <= kth[:, None])
        starts = np.searchsorted(rows, np.arange(block.shape[0]))
        top[blk] = cols[starts[:, None] + np.arange(k)]
    return top


def topk_ranked_lists(dist: DistanceMatrix, k: int) -> RankedLists:
    """Top-k neighbor lists per row, ascending distance, ties to smaller
    index, self excluded: k + 1 entries of each row ranked as stored, less
    the row's own index. With duplicate rows that index can sit behind
    equal neighbours of smaller index; when it falls outside the k + 1,
    the last entry is dropped."""
    n = dist.n_samples
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < N; got k={k}, N={n}")
    top = _stable_topk(dist.values, k + 1)
    keep = top != np.arange(n)[:, None]
    keep[keep.all(axis=1), k] = False  # own index pushed out: drop the last
    top = top[keep].reshape(n, k)  # rebound: the k + 1 columns are freed here
    return RankedLists(lists=top)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Over every index of the ranges ``s .. s + l - 1`` (start s, length
    l), range by range: the range's position in ``starts`` and the index."""
    which = np.repeat(np.arange(starts.size), lengths)
    pos = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(pos.size)
    return which, pos


def _segment_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[s:s + l].sum()`` for each start s and length l, 0.0 for an
    empty range, with the bits of that 1-D sum: the ranges of one length
    are summed as the rows of one 2-D array, whose row sums have the bits
    of each row's own 1-D sum."""
    sums = np.zeros(starts.size)
    for length in np.unique(lengths[lengths > 0]):
        group = np.flatnonzero(lengths == length)
        sums[group] = values[starts[group, None] + np.arange(length)].sum(axis=1)
    return sums


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


def _chunks(ends: np.ndarray) -> Iterator[slice]:
    """Consecutive slices over items whose costs have the running totals
    ``ends``: each holds as many items as fit ``_CHUNK_TRIPLES``, and at
    least one."""
    start = 0
    while start < ends.size:
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + _CHUNK_TRIPLES, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _expanded_sets(
    recip: np.ndarray, recip_half: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's reciprocal set joined with every half-width set of a
    member q that has at least two thirds of its members in the row's set;
    from pair keys as in :func:`_reciprocal_pairs` to (rows, columns) in
    row-major order, one boolean block of rows at a time. A block holds as
    many rows as fit ``_CHUNK_TRIPLES`` (row, member, candidate) triples."""
    h_rows, h_cols = np.divmod(recip_half, n)
    h_ptr = _pointers(h_rows, n)
    h_len = np.diff(h_ptr)
    r_rows, r_cols = np.divmod(recip, n)
    r_ptr = _pointers(r_rows, n)
    triples = np.concatenate(([0], np.cumsum(h_len[r_cols])))
    rows, cols = [], []
    for blk in _chunks(triples[r_ptr[1:]]):
        span = slice(r_ptr[blk.start], r_ptr[blk.stop])
        local, qs = r_rows[span] - blk.start, r_cols[span]
        member = np.zeros((blk.stop - blk.start, n), dtype=bool)
        member[local, qs] = True
        pair, pos = _ranges(h_ptr[qs], h_len[qs])
        overlap = np.bincount(pair[member[local[pair], h_cols[pos]]], minlength=qs.size)
        taken = (3 * overlap >= 2 * h_len[qs])[pair]
        member[local[pair[taken]], h_cols[pos[taken]]] = True
        r, c = np.divmod(np.flatnonzero(member), n)
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
    lengths = np.diff(ptr)
    vals /= np.repeat(_segment_sums(vals, ptr[:-1], lengths), lengths)
    return ptr, cols, vals


def _query_expansion(
    encoding: Tuple[np.ndarray, ...], rank: np.ndarray, k2: int
) -> Tuple[np.ndarray, ...]:
    """Step 4 of :func:`k_reciprocal_jaccard` on dense row blocks of V: a
    running sum over the k2 ranked rows, one division by k2, then a
    pairwise row sum over all N columns, the bits of ``v.sum(axis=1)``
    over the dense matrix. Returns the row sums of the result and the
    result in compressed columns: column pointers, row indices (ascending
    within a column) and weights."""
    ptr, cols, vals = encoding
    lengths = np.diff(ptr)
    n = rank.shape[0]
    row_sums = np.empty(n)
    e_rows, e_cols, e_vals = [], [], []
    for blk in _row_blocks(n):
        sources = rank[blk, :k2].T if k2 > 1 else [np.arange(blk.start, blk.stop)]
        dense = np.zeros((blk.stop - blk.start, n))
        for src in sources:
            which, pos = _ranges(ptr[src], lengths[src])
            dense[which, cols[pos]] += vals[pos]
        if k2 > 1:
            dense /= k2
        row_sums[blk] = dense.sum(axis=1)
        r, c = np.divmod(np.flatnonzero(dense), n)  # faster than 2-D np.nonzero
        e_rows.append(r + blk.start)
        e_cols.append(c)
        e_vals.append(dense[r, c])
    flat_cols = np.concatenate(e_cols)
    by_col = np.argsort(flat_cols, kind="stable")
    col_ptr = _pointers(flat_cols[by_col], n)
    return row_sums, col_ptr, np.concatenate(e_rows)[by_col], np.concatenate(e_vals)[by_col]


def _sums_of_minima(expanded: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Step 5's sums of minima, accumulated into a fresh N x N buffer, and
    the row sums passed through.

    Column m of V adds ``min(V[i, m], V[j, m])`` at (i, j) for every pair of
    rows in its support: the outer product of the column's weights. That
    product is symmetric, so only the pairs (i, j) with j after i in the
    column's ascending support are accumulated. Entry by entry in storage
    order (ascending column, then ascending row), each entry's pairs are
    cut into chunks of about ``_CHUNK_TRIPLES`` (i, j, value) triples, and
    each chunk goes to one ``np.add.at``. Within one column every key is
    distinct, so a pair still receives its terms in ascending m, whatever
    the cut. The upper triangle is then mirrored, one row block at a time,
    and the diagonal terms ``V[i, m]`` are added by one ``np.add.at`` in
    storage order: every entry sums its terms from 0 in ascending m, as
    the full outer products did."""
    row_sums, col_ptr, col_rows, col_vals = expanded
    n = row_sums.size
    out = np.zeros((n, n), dtype=np.float64)
    flat = out.reshape(-1)
    # The entries after each one in its column: its pairs.
    after = np.repeat(col_ptr[1:], np.diff(col_ptr))
    after -= np.arange(1, col_rows.size + 1)
    for chunk in _chunks(np.cumsum(after)):
        counts = after[chunk]
        firsts = np.arange(chunk.start + 1, chunk.stop + 1) - (np.cumsum(counts) - counts)
        partners = np.repeat(firsts, counts)
        partners += np.arange(partners.size)
        keys = np.repeat(col_rows[chunk] * n, counts)
        keys += col_rows[partners]
        minima = np.repeat(col_vals[chunk], counts)
        np.minimum(minima, col_vals[partners], out=minima)
        np.add.at(flat, keys, minima)
    # The lower triangle and the diagonal are still 0, so each mirrored
    # entry is copied exactly. A row block left of the diagonal does not
    # overlap its source and is assigned without a temporary; the square
    # on the diagonal adds its own transpose.
    for blk in _row_blocks(n):
        out[blk, : blk.start] = out[: blk.start, blk].T
        square = out[blk, blk]
        square += square.T
    np.add.at(flat, col_rows * (n + 1), col_vals)
    return out, row_sums


def _jaccard_blend(
    out: np.ndarray, row_sums: np.ndarray, dist: Optional[np.ndarray], blend_lambda: float
) -> None:
    """Steps 5-6 of :func:`k_reciprocal_jaccard` in place, one row block at
    a time: ``out`` holds the sums of minima on entry, the clipped blend
    with a zero diagonal on exit. ``dist`` is None at ``blend_lambda == 0``,
    where the blend is skipped: it would add +0.0 to values that are never
    -0.0, which changes no bit."""
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
        if dist is not None:
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

    Memory: the normalized distance (normalized in place) lives until V
    is built; at ``blend_lambda == 0`` it is then freed, since the blend
    would only add +0.0, so the output is the one N x N float64 matrix
    from there on; otherwise both live to the end. V is held as per-row
    (index, weight) arrays. The helper of each step (:func:`_encoding` and
    on) tells how it runs and in which order its sums are taken; both
    triangles of the sums of minima hold the same sums, so the result is
    exactly symmetric.
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
    # Normalized in place: pairwise_sq_euclidean keeps no reference.
    dist.flags.writeable = True
    dmax = dist.max()
    if dmax > 0:
        dist /= dmax
    rank = _stable_topk(dist, k1 + 1)
    encoding = _encoding(dist, rank, k1)
    if blend_lambda == 0.0:
        dist = None  # the blend would add +0.0; freed before the output exists
    # Nested, so that the expanded V is freed after the sums of minima.
    out, row_sums = _sums_of_minima(_query_expansion(encoding, rank, k2))
    _jaccard_blend(out, row_sums, dist, blend_lambda)
    return DistanceMatrix._trusted(out)
