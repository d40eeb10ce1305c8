import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    encoding_weights_loop_oracle,
    k_reciprocal_loop_oracle,
    k_reciprocal_oracle,
    pairwise_sq_oracle,
    sq_euclidean_dense_oracle,
)
import pplr
from pplr import neighbors
from pplr.cluster import DbscanParams, dbscan
from pplr.core import NumericalError, l2_normalize, normalize_bank
from pplr.ingest import SynthConfig, generate_synthetic_bank
from pplr.neighbors import (
    DistanceMatrix,
    _stable_topk,
    k_reciprocal_jaccard,
    pairwise_sq_euclidean,
    topk_ranked_lists,
)
from pplr.pipeline import PipelineConfig, agreement_scores


def stable_topk_reference(values, k):
    return np.argsort(values, axis=1, kind="stable")[:, :k]


def masked_reference(dist, k):
    masked = dist.values.copy()
    np.fill_diagonal(masked, np.inf)
    return stable_topk_reference(masked, k)


def grid_points(rng, n=300):
    """Points on the {0,1,2}^2 grid: 9 distinct positions, heavy ties."""
    return rng.integers(0, 3, size=(n, 2)).astype(np.float64)


def with_duplicates(x):
    """Second half of the rows repeats the first, so a duplicate of smaller
    index ranks ahead of a sample's own index."""
    x = x.copy()
    half = x.shape[0] // 2
    x[half : 2 * half] = x[:half]
    return x


class TestPairwiseSqEuclidean:
    def test_hand_case(self):
        d = pairwise_sq_euclidean(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d.values[0, 1] == d.values[1, 0] == 25.0
        assert d.values[0, 0] == d.values[1, 1] == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 3))
        d = pairwise_sq_euclidean(x)
        assert np.abs(d.values - pairwise_sq_oracle(x)).max() < 1e-10

    def test_exact_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 6)) * 100
        d = pairwise_sq_euclidean(x).values
        assert np.all(np.diagonal(d) == 0.0)
        assert np.array_equal(d, d.T)

    def test_values_read_only(self):
        d = pairwise_sq_euclidean(np.eye(3))
        with pytest.raises(ValueError):
            d.values[0, 1] = 0.0

    def test_overflowing_norms_raise_numerical_error(self):
        with pytest.raises(NumericalError, match="non-finite distance"):
            pairwise_sq_euclidean(np.array([[1e200, 0.0], [0.0, 1e200]]))

    def test_own_matrices_skip_post_init(self, monkeypatch):
        # Matrices built in the module are valid by construction; the full
        # N x N validation is for matrices passed in from outside.
        def refuse(self):
            raise AssertionError("re-validated an internal matrix")

        monkeypatch.setattr(DistanceMatrix, "__post_init__", refuse)
        x = np.random.default_rng(8).standard_normal((12, 3))
        pairwise_sq_euclidean(x)
        k_reciprocal_jaccard(x, k1=4, k2=2)


class TestDistanceMatrixInvariants:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]))

    def test_rejects_asymmetry(self):
        m = np.array([[0.0, 1.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestTopkRankedLists:
    def test_hand_row(self):
        values = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [1.0, 0.0, 5.0, 6.0],
                [2.0, 5.0, 0.0, 7.0],
                [3.0, 6.0, 7.0, 0.0],
            ]
        )
        lists = topk_ranked_lists(DistanceMatrix(values), 2)
        assert lists.lists[0].tolist() == [1, 2]

    def test_self_never_listed(self):
        rng = np.random.default_rng(9)
        d = pairwise_sq_euclidean(rng.standard_normal((30, 4)))
        lists = topk_ranked_lists(d, 10)
        assert not np.any(lists.lists == np.arange(30)[:, None])

    def test_tie_broken_by_smaller_index(self):
        # Sample 0 sees equidistant neighbors at indices 4 and 7.
        n = 8
        values = np.full((n, n), 9.0)
        np.fill_diagonal(values, 0.0)
        values[0, 4] = values[4, 0] = 2.0
        values[0, 7] = values[7, 0] = 2.0
        lists = topk_ranked_lists(DistanceMatrix(values), 2)
        assert lists.lists[0].tolist() == [4, 7]

    @pytest.mark.parametrize("case", ["random", "grid", "duplicates"])
    def test_equals_full_stable_argsort(self, case):
        rng = np.random.default_rng(17)
        x = {
            "random": rng.standard_normal((60, 5)),
            "grid": grid_points(rng),
            "duplicates": with_duplicates(rng.standard_normal((41, 4))),
        }[case]
        d = pairwise_sq_euclidean(x)
        n = d.n_samples
        for k in sorted({1, 7, 20, n - 1}):
            got = topk_ranked_lists(d, k).lists
            assert np.array_equal(got, masked_reference(d, k)), f"k={k}"

    def test_own_index_behind_more_than_k_duplicates(self):
        # Rows 0-5 are one point, so row 5 ranks five zero-distance
        # duplicates of smaller index ahead of its own index: for k < 5 its
        # own index is not among the first k + 1 and the last one is dropped.
        rng = np.random.default_rng(23)
        x = rng.standard_normal((20, 3))
        x[:6] = x[0]
        d = pairwise_sq_euclidean(x)
        for k in (1, 2, 3, 4, 5, 19):
            got = topk_ranked_lists(d, k).lists
            assert np.array_equal(got, masked_reference(d, k)), f"k={k}"
        assert topk_ranked_lists(d, 2).lists[5].tolist() == [0, 1]

    def test_k_too_large(self):
        d = pairwise_sq_euclidean(np.eye(4))
        with pytest.raises(ValueError):
            topk_ranked_lists(d, 4)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        d = pairwise_sq_euclidean(rng.standard_normal((25, 5)))
        squared = DistanceMatrix(d.values**2)
        scaled = DistanceMatrix(3.0 * d.values)
        base = topk_ranked_lists(d, 6).lists
        assert np.array_equal(base, topk_ranked_lists(squared, 6).lists)
        assert np.array_equal(base, topk_ranked_lists(scaled, 6).lists)

    def test_cosine_equivalence_on_normalized_features(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((40, 8))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        euclid = pairwise_sq_euclidean(f)
        cos = 1.0 - f @ f.T
        cos = 0.5 * (cos + cos.T)
        np.maximum(cos, 0.0, out=cos)
        np.fill_diagonal(cos, 0.0)
        cosine = DistanceMatrix(cos)
        a = topk_ranked_lists(euclid, 7).lists
        b = topk_ranked_lists(cosine, 7).lists
        assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_topk_matches_stable_argsort_on_small_integer_matrices(data):
    n = data.draw(st.integers(2, 12), label="n")
    upper = data.draw(arrays(np.int64, (n, n), elements=st.integers(0, 3)), label="upper")
    values = np.triu(upper, 1).astype(np.float64)
    values = values + values.T
    dist = DistanceMatrix(values)
    k = data.draw(st.integers(1, n - 1), label="k")
    got = topk_ranked_lists(dist, k).lists
    assert np.array_equal(got, masked_reference(dist, k))
    # Unmasked, as k_reciprocal_jaccard ranks: zero-distance ties can put a
    # smaller index ahead of a row's own, and the depth may reach N.
    depth = data.draw(st.integers(1, n), label="depth")
    assert np.array_equal(_stable_topk(values, depth), stable_topk_reference(values, depth))


@pytest.mark.parametrize("k", [1, 4, 9, 30], ids=["k1", "k4", "k9", "all-columns"])
def test_stable_topk_with_ties_at_the_cut_off_and_infinities(k):
    # Rows of three distinct values tie at every cut-off, rows of distinct
    # values never do, and in the rest most entries are inf (one row all
    # inf), also the k-th.
    rng = np.random.default_rng(22)
    ties = rng.integers(0, 3, size=(20, 30)).astype(np.float64)
    distinct = rng.standard_normal((20, 30))
    infs = rng.standard_normal((10, 30))
    infs[rng.random((10, 30)) < 0.6] = np.inf
    infs[0] = np.inf
    values = np.vstack([ties, distinct, infs])[rng.permutation(50)]
    kth = np.sort(values, axis=1)[:, k - 1]
    tied = np.count_nonzero(values <= kth[:, None], axis=1) > k
    assert tied.any() == (k < 30) and not tied.all()
    assert np.isinf(kth).any()
    assert np.array_equal(_stable_topk(values, k), stable_topk_reference(values, k))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranked_matches_a_masked_stable_argsort(data):
    # Small integers tie, +inf entries rank last, and one row selects
    # nothing, as a map_cmc query without a positive.
    shape = data.draw(st.tuples(st.integers(1, 10), st.integers(1, 12)), label="shape")
    elements = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf])
    values = data.draw(arrays(np.float64, shape, elements=elements), label="values")
    mask = data.draw(arrays(np.bool_, shape), label="mask")
    mask[data.draw(st.integers(0, shape[0] - 1), label="empty row")] = False
    rows, cols = neighbors._ranked(values, mask)
    order = np.argsort(values, axis=1, kind="stable")
    selected = np.take_along_axis(mask, order, axis=1)
    assert np.array_equal(rows, np.repeat(np.arange(shape[0]), selected.sum(axis=1)))
    assert np.array_equal(cols, order[selected])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=12))
def test_ranges_are_concatenated_aranges(spans):
    # Unsorted and repeated starts, overlapping and empty ranges.
    starts = np.array([s for s, _ in spans], dtype=np.intp)
    lengths = np.array([n for _, n in spans], dtype=np.intp)
    which, pos = neighbors._ranges(starts, lengths)
    expected = [np.arange(s, s + n) for s, n in spans]
    assert np.array_equal(which, np.repeat(np.arange(len(spans)), lengths))
    assert np.array_equal(pos, np.concatenate([np.zeros(0, dtype=np.intp)] + expected))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_segment_sums_have_the_bits_of_each_1d_sum(data):
    # Magnitudes over 16 decades, so that a sum in another order differs in
    # the last bit; lengths past numpy's 128-element pairwise block, equal
    # lengths grouped into one 2-D sum, and empty ranges.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, size=400)
    length = st.one_of(st.sampled_from([0, 1, 128, 129, 300]), st.integers(0, 300))
    lengths = np.array(data.draw(st.lists(length, min_size=1, max_size=8), label="lengths"))
    starts = np.array([data.draw(st.integers(0, 400 - n), label="start") for n in lengths])
    sums = neighbors._segment_sums(values, starts, lengths)
    expected = [values[s:s + n].sum() for s, n in zip(starts, lengths)]
    assert sums.dtype == np.float64
    assert np.array_equal(sums, expected)
    assert np.array_equal(neighbors._segment_sums(values, np.array([7]), np.array([0])), [0.0])


def two_blob_features(rng, n_a=5, n_b=5, dim=4, gap=8.0, spread=0.05):
    a = rng.standard_normal((n_a, dim)) * spread
    b = rng.standard_normal((n_b, dim)) * spread
    b[:, 0] += gap
    return np.vstack([a, b])


class TestKReciprocalJaccard:
    def test_identical_rows_have_zero_distance(self):
        rng = np.random.default_rng(12)
        x = two_blob_features(rng)
        x[3] = x[1]
        out = k_reciprocal_jaccard(x, k1=4, k2=2)
        assert out.values[1, 3] < 1e-6

    def test_matches_definition_oracle_on_two_blobs(self):
        rng = np.random.default_rng(13)
        x = two_blob_features(rng, n_a=5, n_b=5)
        ours = k_reciprocal_jaccard(x, k1=4, k2=2, blend_lambda=0.0).values
        ref = k_reciprocal_oracle(x, k1=4, k2=2, blend_lambda=0.0)
        assert np.abs(ours - ref).max() < 1e-6

    def test_matches_definition_oracle_random(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            n = int(rng.integers(12, 40))
            x = rng.standard_normal((n, 6))
            k1 = int(rng.integers(3, min(12, n - 1)))
            k2 = int(rng.integers(1, k1 + 1))
            lam = float(rng.uniform(0, 1))
            ours = k_reciprocal_jaccard(x, k1, k2, lam).values
            ref = k_reciprocal_oracle(x, k1, k2, lam)
            assert np.abs(ours - ref).max() < 1e-6, f"trial {trial}"

    def test_lambda_one_is_minmax_normalized_euclidean(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((20, 5))
        out = k_reciprocal_jaccard(x, k1=5, k2=2, blend_lambda=1.0).values
        d = pairwise_sq_euclidean(x).values
        assert np.array_equal(out, d / d.max())

    def test_bounds_symmetry_zero_diag(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 4))
        out = k_reciprocal_jaccard(x, k1=6, k2=3, blend_lambda=0.0)
        v = out.values
        assert np.array_equal(v, v.T)
        assert np.all(np.diagonal(v) == 0.0)
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_bit_exact_against_loop_oracle(self):
        rng = np.random.default_rng(18)
        blobs = np.vstack([two_blob_features(rng, 12, 14), two_blob_features(rng, 9, 5) + 3.0])
        dup = with_duplicates(rng.standard_normal((30, 4)))
        own = np.argsort(pairwise_sq_euclidean(dup).values, axis=1, kind="stable")[:, 0]
        assert np.any(own != np.arange(30)), "a duplicate must rank ahead of its own row"
        grid = grid_points(rng, 40) + rng.standard_normal((40, 2)) * 1e-3
        banks = [("random", rng.standard_normal((35, 6))), ("blobs", blobs),
                 ("duplicates", dup), ("near-grid", grid)]
        for name, x in banks:
            for k1 in (int(rng.integers(2, 12)), x.shape[0] - 1):
                for k2 in sorted({1, int(rng.integers(1, k1 + 1)), k1}):
                    for lam in (0.0, 0.5, 1.0):
                        ours = k_reciprocal_jaccard(x, k1, k2, lam).values
                        ref = k_reciprocal_loop_oracle(x, k1, k2, lam)
                        assert np.array_equal(ours, ref), f"{name} k1={k1} k2={k2} lambda={lam}"

    def test_empty_encodings_raise_numerical_error(self):
        # Five identical rows with k1 = 1: rows 2-4 are in no one's top-2,
        # so their encodings are empty and their pairwise Jaccard is 0 / 0.
        with pytest.raises(NumericalError, match="non-finite distance"):
            k_reciprocal_jaccard(np.zeros((5, 3)), k1=1, k2=1)

    def test_parameter_validation(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError):
            k_reciprocal_jaccard(x, k1=10)
        with pytest.raises(ValueError):
            k_reciprocal_jaccard(x, k1=5, k2=6)
        with pytest.raises(ValueError):
            k_reciprocal_jaccard(x, k1=5, k2=2, blend_lambda=1.5)


class TestAcrossRowBlocks:
    """The exact checks rerun with 9-row blocks and 40-triple chunks (the
    ``small_blocks`` fixture). Bank sizes 30, 35, 40 (k-reciprocal), 41,
    60, 300 (top-k) and those below each span at least 3 blocks and end on
    a ragged one."""

    def test_pairwise_matches_dense_form(self, small_blocks):
        rng = np.random.default_rng(19)
        for n, dim in [(30, 2), (35, 6), (58, 32), (301, 64)]:
            x = rng.standard_normal((n, dim))
            assert n % small_blocks and n > 2 * small_blocks
            assert np.array_equal(pairwise_sq_euclidean(x).values, sq_euclidean_dense_oracle(x))

    @pytest.mark.parametrize("case", ["random", "grid", "duplicates"])
    def test_topk_equals_full_stable_argsort(self, small_blocks, case):
        TestTopkRankedLists().test_equals_full_stable_argsort(case)

    def test_k_reciprocal_bit_exact_against_loop_oracle(self, small_blocks):
        TestKReciprocalJaccard().test_bit_exact_against_loop_oracle()

    def test_a_nan_in_the_last_ragged_block_is_found(self, small_blocks):
        values = np.zeros((31, 31))
        values[30, 5] = np.nan  # rows 27-30 form the last block, of 4 rows
        with pytest.raises(NumericalError, match="non-finite distance entry"):
            DistanceMatrix._trusted(values)

    def test_overflowing_features_raise_numerical_error(self, small_blocks):
        x = np.zeros((31, 2))
        x[30, 0] = 1e200  # its squared norm overflows, in the last block
        with pytest.raises(NumericalError, match="non-finite distance entry"):
            pairwise_sq_euclidean(x)


@pytest.mark.parametrize("rows", [1, 64], ids=["one-row", "two-slabs"])
class TestAtOtherBlockSizes:
    """The slab oracles with blocks of 1 row (each slab holds one row of
    data) and of 64 rows (two slabs per block)."""

    def test_pairwise_matches_dense_form(self, monkeypatch, rows):
        monkeypatch.setattr(neighbors, "_BLOCK_ROWS", rows)
        rng = np.random.default_rng(19)
        for n, dim in [(30, 2), (35, 6), (58, 32), (301, 64)]:
            x = rng.standard_normal((n, dim))
            assert np.array_equal(pairwise_sq_euclidean(x).values, sq_euclidean_dense_oracle(x))

    def test_k_reciprocal_bit_exact_against_loop_oracle(self, monkeypatch, rows):
        monkeypatch.setattr(neighbors, "_BLOCK_ROWS", rows)
        TestKReciprocalJaccard().test_bit_exact_against_loop_oracle()


class TestDistanceKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80), dim=st.integers(1, 40), strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_at_every_block_size(self, n, dim, strided, seed):
        # The pairwise matrix and the rows of another matrix against it
        # (as map_cmc takes them) at blocks of 1, 9, 32 and 64 rows; the
        # pairwise matrix is exactly symmetric.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2 * dim))[:, ::2] if strided else rng.standard_normal((n, dim))
        q = rng.standard_normal((n // 3 + 1, dim))
        results = []
        with pytest.MonkeyPatch.context() as patch:
            for rows in (1, 9, 32, 64):
                patch.setattr(neighbors, "_BLOCK_ROWS", rows)
                cross = [r.copy() for _, r in neighbors._sq_distance_rows(q, x)]
                results.append((pairwise_sq_euclidean(x).values, np.vstack(cross)))
        d, cross = results[0]
        assert np.array_equal(d, d.T)
        for other_d, other_cross in results[1:]:
            assert np.array_equal(other_d, d) and np.array_equal(other_cross, cross)

    def test_same_bits_at_one_and_two_blas_threads(self):
        # N = 300 = 8 * 37 + 4, where one whole x @ x.T changes in the last
        # bit between 1 and 2 OpenBLAS threads.
        script = (
            "import hashlib, numpy as np\n"
            "from pplr.neighbors import pairwise_sq_euclidean\n"
            "x = np.random.default_rng(25).standard_normal((300, 32))\n"
            "x /= np.linalg.norm(x, axis=1, keepdims=True)\n"
            "print(hashlib.sha256(pairwise_sq_euclidean(x).values.tobytes()).hexdigest())\n"
        )
        src = str(Path(pplr.__file__).resolve().parent.parent)
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


def sums_of_minima_by_column(col_ptr, col_rows, col_vals, n):
    """The per-column form of the sum of minima: one ``np.add.at`` of a
    column's outer product of minima at a time, in ascending column order."""
    out = np.zeros((n, n))
    for m in range(n):
        support = col_rows[col_ptr[m] : col_ptr[m + 1]]
        weights = col_vals[col_ptr[m] : col_ptr[m + 1]]
        np.add.at(out, np.ix_(support, support), np.minimum.outer(weights, weights))
    return out


class TestAcrossChunks:
    """The chunked passes at other triple budgets: 1 (every chunk one row of
    one column's outer product, every expansion block one row), 37 (chunks
    that start and end inside a column's support and also span several
    small columns) and one chunk for the whole bank."""

    BUDGETS = pytest.mark.parametrize(
        "budget", [1, 37, 1 << 40], ids=["one-row", "mid-column", "one-chunk"]
    )

    @BUDGETS
    def test_k_reciprocal_bit_exact_against_loop_oracle(self, monkeypatch, budget):
        monkeypatch.setattr(neighbors, "_CHUNK_TRIPLES", budget)
        TestKReciprocalJaccard().test_bit_exact_against_loop_oracle()

    @BUDGETS
    def test_sums_of_minima_equal_the_per_column_form(self, small_blocks, monkeypatch, budget):
        # Column supports of 0 to 30 rows, so that 37 cuts inside large
        # columns and groups small ones; weights from a few values, so
        # that minima tie. The upper triangle is mirrored in 9-row blocks.
        monkeypatch.setattr(neighbors, "_CHUNK_TRIPLES", budget)
        rng = np.random.default_rng(21)
        n = 40
        lengths = rng.integers(0, 31, size=n)
        lengths[[3, 4, 17]] = 0
        col_ptr = np.concatenate(([0], np.cumsum(lengths)))
        col_rows = np.concatenate([np.sort(rng.choice(n, size=s, replace=False)) for s in lengths])
        col_vals = rng.choice([0.1, 0.25, 1 / 3, 0.7], size=col_rows.size) * rng.uniform(0.5, 1.5)
        row_sums = rng.uniform(size=n)
        out, sums = neighbors._sums_of_minima((row_sums, col_ptr, col_rows, col_vals))
        assert sums is row_sums
        assert np.array_equal(out, sums_of_minima_by_column(col_ptr, col_rows, col_vals, n))


def test_encoding_weights_equal_the_per_row_loop():
    # The synthetic bank with 32 identities: N = 640, and 19 encoding
    # lengths from 20 to 41 entries, each shared by up to 89 rows.
    x = l2_normalize(generate_synthetic_bank(SynthConfig(seed=7, n_identities=32)).global_feats)
    dist = pairwise_sq_euclidean(x).values
    dist = dist / dist.max()
    k1 = 30
    rank = np.argsort(dist, axis=1, kind="stable")[:, : k1 + 1]
    ptr, cols, vals = neighbors._encoding(dist, rank, k1)
    lengths = np.unique(np.diff(ptr))
    assert 10 < lengths.size < x.shape[0] // 4
    assert np.array_equal(vals, encoding_weights_loop_oracle(dist, ptr, cols))


def test_row_sums_of_a_2d_array_have_the_bits_of_1d_sums():
    # _encoding and map_cmc sum rows of equal length as one 2-D array; each
    # row must sum as its values would as a 1-D array, also past numpy's
    # 8-way unrolled and 128-element pairwise blocks.
    rng = np.random.default_rng(24)
    for length in range(1, 301):
        rows = rng.uniform(size=(6, length)) * 10.0 ** rng.integers(-8, 9, size=(6, 1))
        sums = rows.sum(axis=1)
        for i in range(rows.shape[0]):
            assert sums[i] == rows[i].copy().sum(), f"length {length}"


def test_strided_features_give_an_exactly_symmetric_matrix():
    # The kernel copies strided features into its zero-padded rows and
    # slabs, so they give the bits of their contiguous copy.
    big = np.random.default_rng(20).standard_normal((300, 64))
    x = big[:, ::2]
    d = pairwise_sq_euclidean(x).values
    assert np.array_equal(d, d.T)
    assert np.array_equal(d, sq_euclidean_dense_oracle(np.ascontiguousarray(x)))


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_within_a_few_n_by_n_matrices():
    # The synthetic bank with 32 identities: N = 640. k_reciprocal_jaccard
    # holds the normalized distance until the encoding is built and, at
    # lambda = 0, frees it before the output exists; at lambda > 0 both
    # live to the end. Add row-block, chunk and sparse-encoding
    # temporaries; the dense form held about 11 matrices. The other bounds
    # are the measured peaks (pairwise 1.08 matrices, top-k 0.13, DBSCAN
    # 0.04, agreement 1.22) plus 0.05 matrices, one 32-row block of
    # float64, rounded up: a full N x N bool or index temporary in any of
    # them breaks its bound.
    bank = generate_synthetic_bank(SynthConfig(seed=7, n_identities=32))
    x = l2_normalize(bank.global_feats)
    matrix = x.shape[0] ** 2 * 8
    dist = pairwise_sq_euclidean(x)
    jaccard = k_reciprocal_jaccard(x)  # first call: numpy imports helper modules once
    assert traced_peak(k_reciprocal_jaccard, x, 30, 6, 0.0) <= 2 * matrix
    assert traced_peak(k_reciprocal_jaccard, x, 30, 6, 0.5) <= 3 * matrix
    assert traced_peak(pairwise_sq_euclidean, x) <= 1.15 * matrix
    assert traced_peak(topk_ranked_lists, dist, 20) <= 0.18 * matrix
    assert traced_peak(dbscan, jaccard, DbscanParams()) <= 0.09 * matrix
    normalized, cfg = normalize_bank(bank), PipelineConfig()
    assert traced_peak(agreement_scores, normalized, cfg) <= 1.3 * matrix
