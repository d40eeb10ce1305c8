import numpy as np
import pytest

from oracles import dbscan_oracle
from pplr.cluster import DbscanParams, cluster_centroids, dbscan
from pplr.core import PseudoLabels
from pplr.neighbors import DistanceMatrix, pairwise_sq_euclidean


def blob_distances(rng, sizes, gap=10.0, spread=0.05):
    points = []
    for b, size in enumerate(sizes):
        centre = np.zeros(3)
        centre[0] = b * gap
        points.append(centre + spread * rng.standard_normal((size, 3)))
    return pairwise_sq_euclidean(np.vstack(points))


def partition(labels):
    clusters = {}
    for i, lab in enumerate(labels):
        if lab >= 0:
            clusters.setdefault(int(lab), set()).add(i)
    outliers = frozenset(i for i, lab in enumerate(labels) if lab < 0)
    return frozenset(frozenset(c) for c in clusters.values()), outliers


class TestDbscan:
    def test_two_blobs(self):
        rng = np.random.default_rng(21)
        dist = blob_distances(rng, [6, 6])
        labels = dbscan(dist, DbscanParams(eps=0.5, min_samples=2))
        assert labels.k_clusters == 2
        assert labels.n_outliers == 0
        ref_labels, ref_k = dbscan_oracle(dist.values, 0.5, 2)
        assert np.array_equal(labels.labels, ref_labels)
        assert ref_k == 2

    def test_single_cluster_when_all_close(self):
        rng = np.random.default_rng(22)
        dist = blob_distances(rng, [9])
        labels = dbscan(dist, DbscanParams(eps=1.0, min_samples=8))
        assert labels.k_clusters == 1
        assert labels.n_outliers == 0

    def test_isolated_point_is_noise(self):
        rng = np.random.default_rng(23)
        pts = np.vstack([0.01 * rng.standard_normal((6, 2)), [[50.0, 50.0]]])
        labels = dbscan(pairwise_sq_euclidean(pts), DbscanParams(eps=0.5, min_samples=2))
        assert labels.labels[-1] == -1
        assert labels.k_clusters == 1

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(24)
        for trial in range(25):
            n = int(rng.integers(10, 120))
            x = rng.standard_normal((n, 3)) * rng.uniform(0.5, 2.0)
            dist = pairwise_sq_euclidean(x)
            eps = float(rng.uniform(0.5, 4.0))
            min_samples = int(rng.integers(1, 6))
            got = dbscan(dist, DbscanParams(eps=eps, min_samples=min_samples))
            ref_labels, ref_k = dbscan_oracle(dist.values, eps, min_samples)
            assert got.k_clusters == ref_k, f"trial {trial}"
            assert np.array_equal(got.labels, ref_labels), f"trial {trial}"

    def test_canonical_relabeling_is_deterministic(self):
        rng = np.random.default_rng(25)
        dist = blob_distances(rng, [5, 7, 4])
        params = DbscanParams(eps=0.5, min_samples=2)
        first = dbscan(dist, params)
        second = dbscan(dist, params)
        assert np.array_equal(first.labels, second.labels)
        # Cluster 0 must contain the smallest clustered index.
        clustered = np.flatnonzero(first.labels >= 0)
        assert first.labels[clustered[0]] == 0

    def test_permutation_yields_same_partition(self):
        rng = np.random.default_rng(26)
        dist = blob_distances(rng, [6, 5])
        params = DbscanParams(eps=0.5, min_samples=2)
        base = dbscan(dist, params)
        perm = rng.permutation(dist.n_samples)
        permuted = DistanceMatrix(dist.values[np.ix_(perm, perm)])
        moved = dbscan(permuted, params)
        unpermuted = np.empty_like(moved.labels)
        unpermuted[perm] = moved.labels
        assert partition(base.labels) == partition(unpermuted)

    def test_border_point_joins_lowest_core_claimant(self):
        # Index 0 has only two neighbors (one core in each of two separate
        # clusters), so it stays a border point under min_samples=3 and
        # must join the cluster of core 1, its lowest-indexed claimant.
        n = 9
        d = np.full((n, n), 100.0)
        np.fill_diagonal(d, 0.0)
        for group in ([1, 2, 3, 4], [5, 6, 7, 8]):
            for a in group:
                for b in group:
                    if a != b:
                        d[a, b] = 0.5
        d[0, 1] = d[1, 0] = 0.5
        d[0, 5] = d[5, 0] = 0.5
        labels = dbscan(DistanceMatrix(d), DbscanParams(eps=1.0, min_samples=3))
        assert labels.k_clusters == 2
        assert labels.labels[0] == labels.labels[1]
        assert labels.labels[0] != labels.labels[5]
        ref_labels, _ = dbscan_oracle(d, 1.0, 3)
        assert np.array_equal(labels.labels, ref_labels)

    def test_matches_bruteforce_across_row_blocks(self, small_blocks):
        # Duplicate rows (distance 0 to their copies), every eps equal to a
        # stored distance, and min_samples 1, where any point with a
        # neighbour is core; 31 and 58 rows end on a ragged 9-row block.
        rng = np.random.default_rng(28)
        for n in (31, 58):
            x = rng.standard_normal((n, 2))
            x[n // 2 :] = x[rng.integers(0, n // 2, size=n - n // 2)]
            dist = pairwise_sq_euclidean(x)
            stored = np.unique(dist.values[dist.values > 0])
            for eps in stored[[2, stored.size // 20, stored.size // 5]]:
                for min_samples in (1, 2, 4):
                    got = dbscan(dist, DbscanParams(eps=float(eps), min_samples=min_samples))
                    ref_labels, ref_k = dbscan_oracle(dist.values, eps, min_samples)
                    assert got.k_clusters == ref_k, (n, eps, min_samples)
                    assert np.array_equal(got.labels, ref_labels), (n, eps, min_samples)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            DbscanParams(eps=0.0)
        with pytest.raises(ValueError):
            DbscanParams(min_samples=0)


class TestClusterCentroids:
    def test_hand_cases(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        labels = PseudoLabels(labels=np.array([0, 0, 1, -1]))
        cents = cluster_centroids(feats, labels)
        assert np.array_equal(cents, [[1.0, 0.0], [5.0, 5.0]])

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(27)
        feats = rng.standard_normal((20, 4))
        raw = rng.integers(0, 3, size=20)
        raw[:3] = [0, 1, 2]
        labels = PseudoLabels(labels=raw)
        cents = cluster_centroids(feats, labels)
        for b in range(3):
            ref = feats[raw == b].mean(axis=0)
            assert np.abs(cents[b] - ref).max() < 1e-12


@pytest.mark.parametrize("name", ["eps", "min_samples"])
def test_dbscan_params_reject_non_finite_numbers(name, non_finite):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        DbscanParams(**{name: non_finite})
