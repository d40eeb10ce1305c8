import tracemalloc
import warnings

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
from pplr.ingest import SynthConfig, generate_synthetic_bank, read_feature_bank, write_feature_bank
from pplr.pipeline import PipelineConfig, initial_model, project_bank


class TestL2Normalize:
    def test_basic_rows(self):
        out = l2_normalize(np.array([[3.0, 4.0], [0.0, 5.0]]))
        assert np.allclose(out, [[0.6, 0.8], [0.0, 1.0]])

    def test_zero_row_names_index(self):
        with pytest.raises(NumericalError, match="row 0 has a zero or non-finite norm"):
            l2_normalize(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(NumericalError, match="row 2 has a zero or non-finite norm"):
            l2_normalize(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            l2_normalize(np.array([[np.nan, 1.0]]))

    def test_overflowing_row_is_a_numerical_error(self):
        # The norm of a row of finite entries too large to square is
        # infinite: the row is refused, not divided to zeros, and numpy's
        # overflow warning stays silent.
        big = np.array([[1.0, 0.0], [1e200, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="row 1 has a zero or non-finite norm"):
                l2_normalize(big)
            bank = FeatureBank(global_feats=np.eye(2), part_feats=(big,))
            with pytest.raises(NumericalError, match="row 1 has a zero or non-finite norm"):
                normalize_bank(bank)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 8)) * 10
        once = l2_normalize(x)
        twice = l2_normalize(once)
        assert np.abs(once - twice).max() < 1e-12

    def test_float64_input_is_left_unchanged(self):
        # The rows are divided in place, in the function's own copy.
        x = np.array([[3.0, 4.0], [0.0, 5.0]])
        out = l2_normalize(x)
        assert not np.shares_memory(out, x)
        assert x.tolist() == [[3.0, 4.0], [0.0, 5.0]]

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

    def test_built_banks_are_checked_and_frozen_in_place(self, tmp_path, monkeypatch):
        # normalize_bank hands the bank its new arrays instead of copying
        # them, and shares the read-only ids of its input.
        bank = self._bank(camera_ids=np.arange(6))
        normalized = normalize_bank(bank)
        assert normalized.camera_ids is bank.camera_ids
        for _, m in normalized.spaces():
            with pytest.raises(ValueError):
                m[0, 0] = 7.0
        # Each builder checks its arrays before it hands them over, so the
        # banks that the package builds never run the constructor's checks.
        path = tmp_path / "bank.pplb"
        write_feature_bank(generate_synthetic_bank(SynthConfig(n_identities=3)), path)

        def refuse(self):
            raise AssertionError("re-checked a bank that the package built")

        monkeypatch.setattr(FeatureBank, "__post_init__", refuse)
        raw = read_feature_bank(path)
        generate_synthetic_bank(SynthConfig(n_identities=3))
        normalize_bank(raw)
        project_bank(initial_model(PipelineConfig(), raw), raw)

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


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_stored_indices_are_a_frozen_int64_copy(dtype):
    # Each constructor stores its own int64 array: read-only, and not the
    # caller's, which the caller may go on changing, whatever its dtype.
    labels = np.array([0, 1, 1, 0], dtype=dtype)
    lists = np.array([[1, 2], [0, 2], [0, 1]], dtype=dtype)
    pl, rl = PseudoLabels(labels=labels), RankedLists(lists=lists)
    for stored, given in ((pl.labels, labels), (rl.lists, lists)):
        assert stored.dtype == np.int64 and not stored.flags.writeable
        assert not np.shares_memory(stored, given)
    labels[:] = 0
    lists[:] = 1
    assert pl.labels.tolist() == [0, 1, 1, 0] and pl.k_clusters == 2
    assert rl.lists.tolist() == [[1, 2], [0, 2], [0, 1]]


def test_ranked_lists_hold_one_copy_besides_the_duplicate_check():
    # The sort of the duplicate check and the stored copy: two N x k
    # arrays at the peak (three before the stored copy was the only one).
    lists = (np.arange(2000)[:, None] + np.arange(1, 21)) % 2000
    RankedLists(lists=lists)  # first call: numpy imports helper modules once
    tracemalloc.start()
    try:
        RankedLists(lists=lists)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * lists.nbytes


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

