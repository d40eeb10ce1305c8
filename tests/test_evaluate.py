import tracemalloc

import numpy as np
import pytest

from oracles import (
    average_precision_oracle,
    label_quality_oracle,
    map_cmc_dense_oracle,
    map_cmc_oracle,
)
from pplr import neighbors
from pplr.core import NoValidQueryError
from pplr.evaluate import label_quality, map_cmc


class TestAveragePrecision:
    # Hand cases for the AP oracle that map_cmc is checked against.

    def test_all_relevant(self):
        for length in (1, 3, 10):
            assert average_precision_oracle([True] * length) == 1.0

    def test_single_relevant_at_position_two(self):
        assert average_precision_oracle([False, True]) == 0.5

    def test_hand_case(self):
        assert abs(average_precision_oracle([True, False, True]) - 5 / 6) < 1e-15

    def test_trailing_irrelevant_items_ignored(self):
        base = [True, False, True]
        assert average_precision_oracle(base) == average_precision_oracle(base + [False] * 7)

    def test_requires_a_relevant_item(self):
        with pytest.raises(ValueError):
            average_precision_oracle([False, False])


def random_instance(rng, n_query=30, n_gallery=100, n_ids=8, n_cams=3, dim=6):
    q = rng.standard_normal((n_query, dim))
    g = rng.standard_normal((n_gallery, dim))
    q_ids = rng.integers(0, n_ids, size=n_query)
    g_ids = rng.integers(0, n_ids, size=n_gallery)
    q_cams = rng.integers(0, n_cams, size=n_query)
    g_cams = rng.integers(0, n_cams, size=n_gallery)
    return q, g, q_ids, g_ids, q_cams, g_cams


class TestMapCmc:
    def test_permuted_copy_gallery(self):
        rng = np.random.default_rng(61)
        q = rng.standard_normal((12, 5))
        ids = np.arange(12)
        perm = rng.permutation(12)
        result = map_cmc(
            q, q[perm], ids, ids[perm], np.zeros(12, int), np.ones(12, int)
        )
        assert result.map == 1.0
        assert result.cmc[1] == 1.0

    def test_correct_match_at_rank_two(self):
        # Each query's nearest kept gallery item is a wrong id; its own id
        # sits at rank 2 for every query.
        q = np.array([[0.0, 0.0], [10.0, 0.0]])
        gallery = np.array([[0.1, 0.0], [0.3, 0.0], [10.1, 0.0], [10.3, 0.0]])
        g_ids = np.array([9, 0, 8, 1])
        result = map_cmc(
            q,
            gallery,
            np.array([0, 1]),
            g_ids,
            np.zeros(2, int),
            np.ones(4, int),
        )
        assert result.cmc[1] == 0.0
        assert result.cmc[5] == 1.0
        assert abs(result.map - 0.5) < 1e-15

    def test_matches_per_query_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            inst = random_instance(rng)
            result = map_cmc(*inst)
            ref_map, ref_cmc, ref_excluded = map_cmc_oracle(*inst, ranks=(1, 5, 10))
            assert abs(result.map - ref_map) < 1e-10
            for r in (1, 5, 10):
                assert abs(result.cmc[r] - ref_cmc[r]) < 1e-10
            assert result.n_excluded == ref_excluded

    def test_gallery_permutation_invariance(self):
        rng = np.random.default_rng(63)
        q, g, q_ids, g_ids, q_cams, g_cams = random_instance(rng)
        base = map_cmc(q, g, q_ids, g_ids, q_cams, g_cams)
        perm = rng.permutation(len(g))
        moved = map_cmc(q, g[perm], q_ids, g_ids[perm], q_cams, g_cams[perm])
        assert abs(base.map - moved.map) < 1e-12
        assert base.cmc == moved.cmc

    def test_queries_without_positives_are_excluded(self):
        q = np.array([[0.0], [1.0]])
        g = np.array([[0.0], [1.0]])
        # Query 1's only same-id gallery item shares its camera: excluded.
        result = map_cmc(
            q,
            g,
            np.array([0, 1]),
            np.array([0, 1]),
            np.array([0, 1]),
            np.array([1, 1]),
        )
        assert result.n_queries == 1
        assert result.n_excluded == 1

    def test_no_valid_query_is_a_typed_error(self):
        # One camera: every same-identity gallery item is removed.
        feats = np.array([[0.0], [1.0], [2.0]])
        ids, cams = np.array([0, 0, 1]), np.zeros(3, dtype=np.int64)
        with pytest.raises(NoValidQueryError, match="cross-camera positive"):
            map_cmc(feats, feats, ids, ids, cams, cams)

    @pytest.mark.parametrize("n_query, n_gallery", [(0, 4), (4, 0)], ids=["no-query", "no-gallery"])
    def test_empty_side_is_a_typed_error(self, n_query, n_gallery):
        q, g = np.ones((n_query, 3)), np.ones((n_gallery, 3))
        with pytest.raises(NoValidQueryError, match="cross-camera positive"):
            map_cmc(q, g, np.zeros(n_query, int), np.zeros(n_gallery, int),
                    np.zeros(n_query, int), np.ones(n_gallery, int))

    @pytest.mark.parametrize("side, size", [(5, 40), (4, 10)], ids=["gallery-40", "query-10"])
    def test_camera_count_mismatch_is_refused(self, side, size):
        # 20 queries and 20 gallery rows, one camera vector of the wrong
        # length: a longer one was read only up to the count, silently, and
        # a shorter one indexed past its end.
        inst = list(random_instance(np.random.default_rng(66), n_query=20, n_gallery=20))
        inst[side] = np.zeros(size, dtype=np.int64)
        with pytest.raises(ValueError, match="feature/camera count mismatch"):
            map_cmc(*inst)


def assert_same_as_dense(*inst):
    result = map_cmc(*inst)
    ref_map, ref_cmc, ref_excluded = map_cmc_dense_oracle(*inst, ranks=(1, 5, 10))
    assert result.map == ref_map
    assert result.cmc == ref_cmc
    assert result.n_excluded == ref_excluded


class TestMapCmcAcrossRowBlocks:
    """Ranked one 9-row block of queries at a time (``small_blocks``), the
    result equals the dense single-argsort form exactly."""

    def test_query_differs_from_gallery(self, small_blocks):
        rng = np.random.default_rng(64)
        for n_query in (31, 58):
            assert n_query % small_blocks and n_query > 2 * small_blocks
            assert_same_as_dense(*random_instance(rng, n_query=n_query, n_gallery=77))

    def test_tie_heavy_bank(self, small_blocks):
        # Integer points on a 3 x 3 grid: exact distances, many equal.
        rng = np.random.default_rng(65)
        feats = rng.integers(0, 3, size=(50, 2)).astype(np.float64)
        ids = rng.integers(0, 6, size=50)
        cams = rng.integers(0, 3, size=50)
        assert_same_as_dense(feats, feats, ids, ids, cams, cams)
        assert_same_as_dense(feats[:40], feats[10:], ids[:40], ids[10:], cams[:40], cams[10:])


@pytest.mark.parametrize("rows", [1, 9, 64], ids=["one-query", "nine-queries", "one-block"])
def test_map_cmc_in_row_blocks_of_any_size(monkeypatch, rows):
    # 40 queries in blocks of one query, in five blocks of 9 with a ragged
    # last one, and in one block. With 4 identities over 120 gallery rows,
    # many queries share a positive count, so AP sums groups of rows.
    monkeypatch.setattr(neighbors, "_BLOCK_ROWS", rows)
    rng = np.random.default_rng(67)
    q, g, q_ids, g_ids, q_cams, g_cams = inst = random_instance(
        rng, n_query=40, n_gallery=120, n_ids=4
    )
    counts = ((q_ids[:, None] == g_ids) & (q_cams[:, None] != g_cams)).sum(axis=1)
    assert np.unique(counts).size < counts.size // 3
    assert_same_as_dense(*inst)


def test_map_cmc_sums_each_query_ap_in_rank_order(small_blocks):
    # Two queries with the same number of positives, 20 to 300 of them, so
    # AP sums them as the two rows of one 2-D array; with two queries, a
    # last-bit change in either AP mostly shows in mAP.
    rng = np.random.default_rng(68)
    for n_pos in (20, 60, 150, 300):
        g_ids = np.repeat([0, 1, 2], n_pos)
        inst = (rng.standard_normal((2, 4)), rng.standard_normal((3 * n_pos, 4)),
                np.array([0, 1]), g_ids, np.zeros(2, dtype=np.int64), np.ones_like(g_ids))
        assert_same_as_dense(*inst)


def designed_instance(n_query=20):
    """Queries on a line, 100 apart, camera 0, identity i; each owns five
    gallery rows at exact integer distances. Squared distance 1: a
    cross-camera positive and a same-camera one (removed as junk).
    Squared distance 4, in gallery order: another identity, the farthest
    positive, another identity. The query's own point, under another
    identity, sits at distance 0."""
    q = np.stack([100.0 * np.arange(n_query), np.zeros(n_query)], axis=1)
    offsets = [(1, 0), (0, 1), (0, 2), (2, 0), (-2, 0), (0, 0)]
    g = (q[:, None, :] + np.array(offsets, dtype=float)).reshape(-1, 2)
    q_ids = np.arange(n_query)
    other = n_query + q_ids
    g_ids = np.stack([q_ids, q_ids, other, q_ids, other + n_query, other], axis=1).ravel()
    g_cams = np.tile([1, 0, 0, 1, 1, 2], n_query)
    return q, g, q_ids, g_ids, np.zeros(n_query, dtype=np.int64), g_cams


class TestMapCmcEdgeCases:
    """Ranking stops at each query's farthest cross-camera positive; these
    banks put ties, exclusions and duplicates at that boundary. Each is
    compared exactly with the dense single-argsort form, on 9-row query
    blocks (``small_blocks``; 20 queries: 3 blocks, the last ragged)."""

    def test_ties_with_the_farthest_positive(self, small_blocks):
        inst = designed_instance()
        assert_same_as_dense(*inst)
        # Kept ranking: duplicate (other id), positive, then at distance 4
        # other id, farthest positive, other id: AP = (1/2 + 2/4) / 2.
        result = map_cmc(*inst)
        assert result.map == pytest.approx(0.5)
        assert result.cmc == {1: 0.0, 5: 1.0, 10: 1.0}

    def test_queries_without_positive_share_blocks_with_valid_ones(self, small_blocks):
        q, g, q_ids, g_ids, q_cams, g_cams = designed_instance()
        g_cams = g_cams.reshape(-1, 6)
        g_cams[[2, 9, 10, 19], 0] = 0  # positive at distance 1 becomes junk
        g_cams[[2, 9, 10, 19], 3] = 0  # and the one at distance 4
        g_ids = g_ids.reshape(-1, 6)
        g_ids[[5, 13], 0] = 99  # these keep only the farthest positive
        inst = (q, g, q_ids, g_ids.ravel(), q_cams, g_cams.ravel())
        assert_same_as_dense(*inst)
        assert map_cmc(*inst).n_excluded == 4

    def test_duplicate_of_the_query_under_another_identity(self, small_blocks):
        # Every query is also a gallery row of another identity, and
        # another row of the same identity and camera (junk) duplicates it.
        q, g, q_ids, g_ids, q_cams, g_cams = designed_instance()
        g = np.vstack([q, q, g])
        g_ids = np.concatenate([q_ids + 1000, q_ids, g_ids])
        g_cams = np.concatenate([np.ones_like(q_cams), q_cams, g_cams])
        assert_same_as_dense(q, g, q_ids, g_ids, q_cams, g_cams)

    def test_more_queries_than_gallery_rows(self, small_blocks):
        # Integer grid points: many exact ties, also at the farthest positive.
        rng = np.random.default_rng(70)
        q = rng.integers(0, 4, size=(40, 2)).astype(np.float64)
        g = rng.integers(0, 4, size=(25, 2)).astype(np.float64)
        inst = (q, g, rng.integers(0, 5, 40), rng.integers(0, 5, 25),
                rng.integers(0, 3, 40), rng.integers(0, 3, 25))
        assert_same_as_dense(*inst)


def test_map_cmc_allocates_less_than_one_distance_matrix():
    rng = np.random.default_rng(66)
    n = 640
    feats = rng.standard_normal((n, 32))
    ids = np.arange(n) % 40
    cams = (np.arange(n) // 40) % 4
    map_cmc(feats, feats, ids, ids, cams, cams)  # first call: one-time imports
    tracemalloc.start()
    try:
        map_cmc(feats, feats, ids, ids, cams, cams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


class TestLabelQuality:
    def test_perfect_labels(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        quality = label_quality(gt.copy(), gt)
        assert quality.accuracy == 1.0
        assert quality.pairwise_f == 1.0
        assert quality.outlier_fraction == 0.0

    def test_single_cluster_two_identities(self):
        gt = np.repeat([0, 1], 50)
        labels = np.zeros(100, dtype=int)
        quality = label_quality(labels, gt)
        precision = 2 * (50 * 49 // 2) / (100 * 99 // 2)
        expected_f = 2 * precision * 1.0 / (precision + 1.0)
        assert abs(quality.accuracy - 0.5) < 1e-15
        assert abs(quality.pairwise_f - expected_f) < 1e-12
        assert quality.outlier_fraction == 0.0

    def test_all_outliers(self):
        gt = np.array([0, 0, 1, 1])
        quality = label_quality(np.full(4, -1), gt)
        assert quality.accuracy == 0.0
        assert quality.pairwise_f == 0.0
        assert quality.outlier_fraction == 1.0

    def test_outliers_counted_in_denominator(self):
        gt = np.array([0, 0, 1, 1])
        labels = np.array([0, 0, 1, -1])
        quality = label_quality(labels, gt)
        assert abs(quality.accuracy - 0.75) < 1e-15
        assert quality.outlier_fraction == 0.25

    def test_refined_argmax_path(self):
        gt = np.array([0, 0, 1, 1])
        soft = np.array(
            [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.4, 0.6]]
        )
        quality = label_quality(np.argmax(soft, axis=1), gt)
        assert quality.accuracy == 1.0


def assert_label_quality_matches_oracle(labels, gt):
    quality = label_quality(labels, gt)
    got = (quality.accuracy, quality.pairwise_f, quality.outlier_fraction)
    assert got == label_quality_oracle(labels, gt)


class TestLabelQualityAgainstPairOracle:
    """Every count is an integer, so the three scores equal the pair-loop
    oracle's exactly."""

    def test_random_labelings_with_outliers(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.integers(-1, int(rng.integers(1, 7)), size=n)
            gt = rng.integers(0, int(rng.integers(1, 8)), size=n)
            assert_label_quality_matches_oracle(labels, gt)

    def test_all_noise(self):
        rng = np.random.default_rng(68)
        for n in (1, 2, 9, 30):
            gt = rng.integers(0, 4, size=n)
            assert_label_quality_matches_oracle(np.full(n, -1), gt)

    def test_non_contiguous_ids(self):
        rng = np.random.default_rng(69)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            labels = rng.choice([-1, 3, 17, 250, 1000003], size=n)
            gt = rng.choice([-5, 0, 8, 99, 2**40], size=n)
            assert_label_quality_matches_oracle(labels, gt)

    def test_one_sample(self):
        for label in (-1, 0, 12):
            assert_label_quality_matches_oracle(np.array([label]), np.array([4]))
