import numpy as np
import pytest

from oracles import cluster_members_oracle
from pplr.core import (
    FeatureBank,
    NumericalError,
    PseudoLabels,
    RankedLists,
    l2_normalize,
    normalize_bank,
)


class TestL2Normalize:
    def test_basic_rows(self):
        out = l2_normalize(np.array([[3.0, 4.0], [0.0, 5.0]]))
        assert np.allclose(out, [[0.6, 0.8], [0.0, 1.0]])

    def test_zero_row_names_index(self):
        with pytest.raises(NumericalError, match="zero-norm row 0"):
            l2_normalize(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(NumericalError, match="zero-norm row 2"):
            l2_normalize(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            l2_normalize(np.array([[np.nan, 1.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 8)) * 10
        once = l2_normalize(x)
        twice = l2_normalize(once)
        assert np.abs(once - twice).max() < 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 5))
        out = l2_normalize(x)
        ratios = x / out
        assert np.allclose(ratios, ratios[:, :1])


class TestFeatureBank:
    def _bank(self, **kwargs):
        rng = np.random.default_rng(0)
        defaults = dict(
            global_feats=rng.standard_normal((6, 3)).astype(np.float32),
            part_feats=(rng.standard_normal((6, 3)).astype(np.float32),),
        )
        defaults.update(kwargs)
        return FeatureBank(**defaults)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="part 0"):
            self._bank(part_feats=(np.zeros((5, 3), dtype=np.float32),))

    def test_nan_rejected(self):
        bad = np.ones((6, 3), dtype=np.float32)
        bad[1, 2] = np.nan
        with pytest.raises(NumericalError):
            self._bank(global_feats=bad)

    def test_camera_length_checked(self):
        with pytest.raises(ValueError, match="camera_ids"):
            self._bank(camera_ids=np.arange(4))

    def test_normalized_flag_enforced(self):
        with pytest.raises(ValueError, match="not unit-norm"):
            self._bank(normalized=True)
        ok = normalize_bank(self._bank())
        assert ok.normalized
        norms = np.linalg.norm(ok.global_feats, axis=1)
        assert np.abs(norms - 1).max() < 1e-9

    def test_immutable(self):
        bank = self._bank()
        with pytest.raises(ValueError):
            bank.global_feats[0, 0] = 7.0

    def test_spaces_ordering(self):
        bank = self._bank()
        ids = [sid for sid, _ in bank.spaces()]
        assert ids == ["global", "part0"]


class TestPseudoLabels:
    def test_valid(self):
        pl = PseudoLabels(labels=np.array([0, 1, -1, 0]))
        assert pl.k_clusters == 2
        assert pl.n_outliers == 1
        assert [m.tolist() for m in pl.cluster_members()] == [[0, 3], [1]]

    @pytest.mark.parametrize(
        "labels",
        [
            [-1, -1, -1],
            [],
            [2, -1, 0, 1, 2, -1, 0, 2],
            [0] * 5,
            list(np.random.default_rng(3).permutation(np.arange(300) % 17 - 1)),
        ],
        ids=["all-noise", "empty", "outliers", "one-cluster", "shuffled-300"],
    )
    def test_cluster_members_equal_one_scan_per_cluster(self, labels):
        pl = PseudoLabels(labels=np.array(labels, dtype=np.int64))
        got = pl.cluster_members()
        want = cluster_members_oracle(pl.labels, pl.k_clusters)
        assert len(got) == len(want) == pl.k_clusters
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize(
        "labels, k",
        [([-1, -1, -1], 0), ([], 0), ([1, 1, 0, -1], 2)],
        ids=["all-noise", "empty", "unordered"],
    )
    def test_k_clusters_derived_from_labels(self, labels, k):
        assert PseudoLabels(labels=np.array(labels, dtype=np.int64)).k_clusters == k

    def test_gap_in_ids_rejected(self):
        with pytest.raises(ValueError, match="no gap"):
            PseudoLabels(labels=np.array([0, 2, 2]))

    def test_label_below_minus_one_rejected(self):
        with pytest.raises(ValueError, match="below -1"):
            PseudoLabels(labels=np.array([0, -2, 0]))


class TestRankedLists:
    def test_k_is_list_width(self):
        lists = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        assert RankedLists(lists=lists).k == lists.shape[1] == 3

    def test_self_index_rejected(self):
        with pytest.raises(ValueError, match="own sample index"):
            RankedLists(lists=np.array([[0, 1], [0, 2], [1, 0]]))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RankedLists(lists=np.array([[1, 1], [0, 2], [0, 1]]))

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="k >= 1"):
            RankedLists(lists=np.zeros((3, 0), dtype=np.int64))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            RankedLists(lists=np.array([[1, 5], [0, 2], [0, 1]]))

