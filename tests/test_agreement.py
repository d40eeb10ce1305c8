import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import cross_agreement_oracle
from pplr.agreement import agreement_matrix, cross_agreement
from pplr.core import FeatureBank, RankedLists, l2_normalize
from pplr.ingest import SynthConfig, generate_synthetic_bank
from pplr.neighbors import pairwise_sq_euclidean, topk_ranked_lists
from pplr.pipeline import PipelineConfig, agreement_scores


def make_lists(rows):
    return RankedLists(lists=np.asarray(rows))


def random_lists(rng, n, k):
    lists = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        pool = np.delete(np.arange(n), i)
        lists[i] = rng.choice(pool, size=k, replace=False)
    return RankedLists(lists=lists)


class TestCrossAgreement:
    def test_identical_lists(self):
        a = make_lists([[1, 2], [0, 2], [0, 1]])
        assert np.array_equal(cross_agreement(a, a), [1.0, 1.0, 1.0])

    def test_disjoint_lists(self):
        a = make_lists([[1, 2], [0, 2], [0, 1], [1, 2], [1, 2], [1, 2]])
        b = make_lists([[3, 4], [3, 4], [3, 4], [4, 5], [3, 5], [3, 4]])
        assert np.array_equal(cross_agreement(a, b), np.zeros(6))

    def test_half_overlap_at_k20(self):
        n, k = 50, 20
        rows_a, rows_b = [], []
        for i in range(n):
            pool = np.delete(np.arange(n), i)
            rows_a.append(pool[:k])
            rows_b.append(pool[k // 2 : k // 2 + k])
        scores = cross_agreement(make_lists(rows_a), make_lists(rows_b))
        # Each pair shares exactly 10 of its 20 indices: 10 / (40 - 10).
        assert np.allclose(scores, 10 / 30)

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(31)
        a = random_lists(rng, 40, 8)
        b = random_lists(rng, 40, 8)
        ab = cross_agreement(a, b)
        ba = cross_agreement(b, a)
        assert np.array_equal(ab, ba)
        assert np.array_equal(ab, cross_agreement_oracle(a.lists, b.lists))

    def test_score_one_iff_equal_sets(self):
        rng = np.random.default_rng(32)
        a = random_lists(rng, 30, 6)
        permuted = np.stack([rng.permutation(row) for row in a.lists])
        b = RankedLists(lists=permuted)
        assert np.array_equal(cross_agreement(a, b), np.ones(30))
        c = random_lists(rng, 30, 6)
        different = np.flatnonzero([set(x) != set(y) for x, y in zip(a.lists, c.lists)])
        scores = cross_agreement(a, c)
        assert np.all(scores[different] < 1.0)

    def test_mismatched_k_and_n(self):
        a = make_lists([[1, 2], [0, 2], [0, 1]])
        b = make_lists([[1], [0], [0]])
        with pytest.raises(ValueError, match="k"):
            cross_agreement(a, b)
        c = make_lists([[1, 2], [0, 2], [0, 1], [0, 1]])
        with pytest.raises(ValueError, match="N"):
            cross_agreement(a, c)


def bank_agreements(cfg, k=10):
    bank = generate_synthetic_bank(cfg)
    dists = [pairwise_sq_euclidean(l2_normalize(m)) for _, m in bank.spaces()]
    lists = [topk_ranked_lists(d, k) for d in dists]
    return agreement_matrix(lists[0], lists[1:])


class TestAgreementMatrix:
    def test_identical_space_column_is_one(self):
        rng = np.random.default_rng(33)
        g = random_lists(rng, 25, 5)
        p0 = RankedLists(lists=g.lists)
        p1 = random_lists(rng, 25, 5)
        matrix = agreement_matrix(g, [p0, p1]).scores
        assert np.array_equal(matrix[:, 0], np.ones(25))

    def test_part_to_part_variant(self):
        rng = np.random.default_rng(34)
        p0 = random_lists(rng, 25, 5)
        p1 = random_lists(rng, 25, 5)
        direct = cross_agreement(p0, p1)
        wrapped = agreement_matrix(p0, [p1]).scores[:, 0]
        assert np.array_equal(direct, wrapped)

    def test_fully_occluded_part_scores_lowest(self):
        cfg = SynthConfig(
            n_identities=12,
            samples_per_identity=10,
            dim=24,
            cluster_spread=0.2,
            occlusion_fraction=(0.0, 0.0, 1.0),
            seed=9,
        )
        means = bank_agreements(cfg).mean_per_part()
        assert means[2] < means[0]
        assert means[2] < means[1]

    def test_monotone_degradation_under_occlusion(self):
        previous = None
        for frac in (0.0, 0.5, 1.0):
            cfg = SynthConfig(
                n_identities=12,
                samples_per_identity=10,
                dim=24,
                cluster_spread=0.2,
                occlusion_fraction=(frac, 0.0, 0.0),
                seed=10,
            )
            mean0 = bank_agreements(cfg).mean_per_part()[0]
            if previous is not None:
                assert mean0 <= previous
            previous = mean0


def rows_with_duplicates(data, n, label):
    """n rows drawn from at most 5 distinct small-integer rows: duplicate
    rows and tied distances throughout."""
    distinct = data.draw(arrays(np.int64, (5, 3), elements=st.integers(1, 3)), label=label)
    picks = data.draw(arrays(np.int64, n, elements=st.integers(0, 4)), label=label + " picks")
    return l2_normalize(distinct[picks].astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_agreement_scores_properties_on_banks_with_duplicate_rows(data):
    n = data.draw(st.integers(2, 16), label="n")
    global_feats = rows_with_duplicates(data, n, "global")
    other = rows_with_duplicates(data, n, "part")
    bank = FeatureBank(global_feats=global_feats, part_feats=(global_feats, other), normalized=True)
    cfg = PipelineConfig(k_agreement=data.draw(st.integers(1, 20), label="k_agreement"))
    scores = agreement_scores(bank, cfg).scores
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    # The part identical to the global space agrees with it exactly.
    assert np.array_equal(scores[:, 0], np.ones(n))
    # Cross agreement is symmetric in its two spaces.
    k = min(cfg.k_agreement, n - 1)
    g = topk_ranked_lists(pairwise_sq_euclidean(global_feats), k)
    p = topk_ranked_lists(pairwise_sq_euclidean(other), k)
    assert np.array_equal(cross_agreement(g, p), cross_agreement(p, g))
    assert np.array_equal(scores[:, 1], cross_agreement(p, g))
