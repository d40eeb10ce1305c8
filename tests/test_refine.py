import math

import numpy as np
import pytest

from pplr.core import SoftLabel
from pplr.refine import (
    RefinementConfig,
    aals_target,
    aals_targets,
    effective_alpha,
    pglr_target,
    pglr_targets,
    pglr_weights,
)


class TestAalsTarget:
    def test_alpha_one_is_exact_one_hot(self):
        assert aals_target(0, 4, 1.0).probs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_alpha_zero_is_exact_uniform(self):
        assert aals_target(2, 4, 0.0).probs.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_half_alpha(self):
        assert np.allclose(
            aals_target(0, 4, 0.5).probs, [0.625, 0.125, 0.125, 0.125], atol=1e-15
        )

    def test_range_checks(self):
        with pytest.raises(ValueError):
            aals_target(0, 4, 1.2)
        with pytest.raises(ValueError):
            aals_target(4, 4, 0.5)

    def test_affine_in_alpha(self):
        lo = aals_target(1, 5, 0.2).probs
        hi = aals_target(1, 5, 0.8).probs
        mid = aals_target(1, 5, 0.5).probs
        assert np.abs(0.5 * (lo + hi) - mid).max() < 1e-15

    def test_argmax_preserved_for_positive_alpha(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            label = int(rng.integers(k))
            alpha = float(rng.uniform(1e-6, 1.0))
            assert int(np.argmax(aals_target(label, k, alpha).probs)) == label

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 6, size=10)
        alphas = rng.uniform(0, 1, size=10)
        batch = aals_targets(labels, 6, alphas)
        for i in range(10):
            single = aals_target(int(labels[i]), 6, float(alphas[i])).probs
            assert np.array_equal(batch[i], single)


class TestPglrWeights:
    def test_equal_agreements_uniform(self):
        assert np.allclose(pglr_weights([0.4, 0.4, 0.4]), np.full(3, 1 / 3), atol=1e-15)

    def test_directly_evaluated_softmax(self):
        w = pglr_weights([1.0, 0.0, 0.0])
        e = math.e
        assert np.allclose(w, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)], atol=1e-12)

    def test_single_part(self):
        assert pglr_weights([0.3]).tolist() == [1.0]

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = pglr_weights(rng.uniform(0, 1, size=int(rng.integers(1, 8))))
            assert abs(w.sum() - 1.0) < 1e-9

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            pglr_weights([1.5, 0.2])


class TestPglrTarget:
    def test_beta_one_is_exact_one_hot(self):
        preds = [SoftLabel(np.array([0.7, 0.3])), SoftLabel(np.array([0.2, 0.8]))]
        out = pglr_target(1, 2, preds, [0.5, 0.5], 1.0)
        assert out.probs.tolist() == [0.0, 1.0]

    def test_beta_zero_uniform_preds_collapse_to_uniform(self):
        preds = [np.array([0.25] * 4)] * 3
        out = pglr_target(0, 4, preds, [1 / 3] * 3, 0.0)
        assert np.allclose(out.probs, 0.25, atol=1e-15)

    def test_hand_case(self):
        preds = [np.array([0.8, 0.2]), np.array([0.6, 0.4])]
        out = pglr_target(0, 2, preds, [0.5, 0.5], 0.5)
        assert np.allclose(out.probs, [0.85, 0.15], atol=1e-15)

    def test_collapse_property(self):
        # All-uniform part predictions give beta*onehot + (1-beta)*uniform.
        k, beta = 6, 0.37
        preds = [np.full(k, 1 / k)] * 4
        out = pglr_target(2, k, preds, [0.25] * 4, beta)
        expected = beta * np.eye(k)[2] + (1 - beta) / k
        assert np.abs(out.probs - expected).max() < 1e-15

    def test_affine_in_beta(self):
        preds = [np.array([0.1, 0.9]), np.array([0.5, 0.5])]
        w = [0.6, 0.4]
        lo = pglr_target(0, 2, preds, w, 0.1).probs
        hi = pglr_target(0, 2, preds, w, 0.9).probs
        mid = pglr_target(0, 2, preds, w, 0.5).probs
        assert np.abs(0.5 * (lo + hi) - mid).max() < 1e-15

    def test_validation(self):
        preds = [np.array([0.5, 0.5])]
        with pytest.raises(ValueError, match="sum"):
            pglr_target(0, 2, preds, [0.9], 0.5)
        with pytest.raises(ValueError, match="K"):
            pglr_target(0, 3, preds, [1.0], 0.5)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        b, k, n_parts = 9, 5, 3
        labels = rng.integers(0, k, size=b)
        agreements = rng.uniform(0, 1, size=(b, n_parts))
        logits = rng.standard_normal((n_parts, b, k))
        preds = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        batch = pglr_targets(labels, k, preds, agreements, 0.5)
        for i in range(b):
            w = pglr_weights(agreements[i])
            single = pglr_target(
                int(labels[i]), k, [preds[p, i] for p in range(n_parts)], w, 0.5
            ).probs
            assert np.abs(batch[i] - single).max() < 1e-12


class TestEffectiveAlpha:
    def test_warmup_forces_hard_labels(self):
        cfg = RefinementConfig(beta=0.5, aals_warmup_epochs=5)
        assert effective_alpha(0.3, 0, cfg) == 1.0
        assert effective_alpha(0.3, 4, cfg) == 1.0
        assert effective_alpha(0.3, 5, cfg) == 0.3

    def test_constant_alpha_mode(self):
        cfg = RefinementConfig(beta=0.5, aals_warmup_epochs=2, constant_alpha=0.9)
        assert effective_alpha(0.3, 1, cfg) == 1.0
        assert effective_alpha(0.3, 2, cfg) == 0.9

    def test_elementwise_over_arrays(self):
        scores = np.array([[0.1, 0.6], [0.3, 0.0], [1.0, 0.5]])
        warm = RefinementConfig(aals_warmup_epochs=2)
        assert np.array_equal(effective_alpha(scores, 1, warm), np.ones((3, 2)))
        assert np.array_equal(effective_alpha(scores, 2, warm), scores)
        fixed = RefinementConfig(aals_warmup_epochs=0, constant_alpha=0.9)
        assert np.array_equal(effective_alpha(scores, 0, fixed), np.full((3, 2), 0.9))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(beta=1.5)
        with pytest.raises(ValueError):
            RefinementConfig(constant_alpha=-0.1)
