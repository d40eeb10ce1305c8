import math

import numpy as np
import pytest

from oracles import aals_target_oracle, pglr_target_oracle
from pplr.refine import RefinementConfig, aals_targets, effective_alpha, pglr_targets


def aals_row(label, k, alpha):
    """``aals_targets`` on a one-sample batch."""
    return aals_targets(np.array([label]), k, np.array([alpha]))[0]


def pglr_row(label, k, part_preds, agreements, beta):
    """``pglr_targets`` on a one-sample batch; ``part_preds`` is n_parts x K."""
    preds = np.asarray(part_preds, dtype=np.float64)[:, None, :]
    return pglr_targets(np.array([label]), k, preds, np.array([agreements]), beta)[0]


def ensemble_weights(agreements):
    """The PGLR part weights, read off ``pglr_targets`` at beta = 0 with
    one-hot part predictions (part n predicts class n)."""
    n = len(agreements)
    return pglr_row(0, n, np.eye(n), agreements, 0.0)


class TestAalsTarget:
    def test_alpha_one_is_exact_one_hot(self):
        assert aals_row(0, 4, 1.0).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_alpha_zero_is_exact_uniform(self):
        assert aals_row(2, 4, 0.0).tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_half_alpha(self):
        assert np.allclose(aals_row(0, 4, 0.5), [0.625, 0.125, 0.125, 0.125], atol=1e-15)

    def test_range_checks(self):
        with pytest.raises(ValueError, match="alphas"):
            aals_row(0, 4, 1.2)
        with pytest.raises(ValueError, match="alphas"):
            aals_targets(np.array([0, 1]), 4, np.array([0.5, -0.1]))

    def test_affine_in_alpha(self):
        lo = aals_row(1, 5, 0.2)
        hi = aals_row(1, 5, 0.8)
        mid = aals_row(1, 5, 0.5)
        assert np.abs(0.5 * (lo + hi) - mid).max() < 1e-15

    def test_argmax_preserved_for_positive_alpha(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            label = int(rng.integers(k))
            alpha = float(rng.uniform(1e-6, 1.0))
            assert int(np.argmax(aals_row(label, k, alpha))) == label

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 6, size=10)
        alphas = rng.uniform(0, 1, size=10)
        batch = aals_targets(labels, 6, alphas)
        for i in range(10):
            single = aals_target_oracle(int(labels[i]), 6, float(alphas[i]))
            assert np.array_equal(batch[i], single)


class TestPglrWeights:
    def test_equal_agreements_uniform(self):
        assert np.allclose(ensemble_weights([0.4, 0.4, 0.4]), np.full(3, 1 / 3), atol=1e-15)

    def test_directly_evaluated_softmax(self):
        w = ensemble_weights([1.0, 0.0, 0.0])
        e = math.e
        assert np.allclose(w, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)], atol=1e-12)

    def test_single_part(self):
        assert ensemble_weights([0.3]).tolist() == [1.0]

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = ensemble_weights(rng.uniform(0, 1, size=int(rng.integers(1, 8))))
            assert abs(w.sum() - 1.0) < 1e-9


class TestPglrTarget:
    def test_beta_one_is_exact_one_hot(self):
        preds = [[0.7, 0.3], [0.2, 0.8]]
        assert pglr_row(1, 2, preds, [0.5, 0.5], 1.0).tolist() == [0.0, 1.0]

    def test_beta_zero_uniform_preds_collapse_to_uniform(self):
        preds = [[0.25] * 4] * 3
        assert np.allclose(pglr_row(0, 4, preds, [0.2, 0.5, 0.9], 0.0), 0.25, atol=1e-15)

    def test_hand_case(self):
        # Equal agreements weigh the two parts 0.5 / 0.5.
        preds = [[0.8, 0.2], [0.6, 0.4]]
        assert np.allclose(pglr_row(0, 2, preds, [0.3, 0.3], 0.5), [0.85, 0.15], atol=1e-15)

    def test_collapse_property(self):
        # All-uniform part predictions give beta*onehot + (1-beta)*uniform.
        k, beta = 6, 0.37
        preds = [np.full(k, 1 / k)] * 4
        out = pglr_row(2, k, preds, [0.1, 0.4, 0.6, 0.8], beta)
        expected = beta * np.eye(k)[2] + (1 - beta) / k
        assert np.abs(out - expected).max() < 1e-15

    def test_affine_in_beta(self):
        preds = [[0.1, 0.9], [0.5, 0.5]]
        ca = [0.9, 0.5]
        lo = pglr_row(0, 2, preds, ca, 0.1)
        hi = pglr_row(0, 2, preds, ca, 0.9)
        mid = pglr_row(0, 2, preds, ca, 0.5)
        assert np.abs(0.5 * (lo + hi) - mid).max() < 1e-15

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        b, k, n_parts = 9, 5, 3
        labels = rng.integers(0, k, size=b)
        agreements = rng.uniform(0, 1, size=(b, n_parts))
        logits = rng.standard_normal((n_parts, b, k))
        preds = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        batch = pglr_targets(labels, k, preds, agreements, 0.5)
        assert np.array_equal(pglr_targets(labels.tolist(), k, preds, agreements, 0.5), batch)
        for i in range(b):
            single = pglr_target_oracle(
                int(labels[i]), k, [preds[p, i] for p in range(n_parts)], agreements[i], 0.5
            )
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
