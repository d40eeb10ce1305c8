import math

import numpy as np
import pytest

from oracles import (
    aals_loss_oracle,
    fd_gradient,
    inter_camera_loss_batch_oracle,
    relative_error,
    soft_cross_entropy_oracle,
    softmax_triplet_oracle,
)
from pplr.core import PseudoLabels
from pplr.objectives import (
    CameraProxySet,
    LossWeights,
    build_camera_proxies,
    inter_camera_loss_batch,
    log_softmax,
    softmax,
    softmax_triplet_loss,
    total_loss,
)
from pplr.refine import aals_targets


def aals_row(label, k, alpha):
    """``aals_targets`` on a one-sample batch."""
    return aals_targets(np.array([label]), k, np.array([alpha]))[0]


class TestSoftmax:
    def test_symmetric_pair(self):
        assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]

    def test_extreme_logits_stable(self):
        probs = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] > 0.999999
        log_q = log_softmax(np.array([1000.0, 0.0]))
        assert log_q.tolist() == [0.0, -1000.0]

    def test_matches_direct_formula(self):
        z = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 0.0]])
        direct = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.abs(softmax(z) - direct).max() < 1e-12
        assert np.abs(log_softmax(z) - np.log(direct)).max() < 1e-12


class TestCrossEntropy:
    """The global head's term, H(t, softmax(z)), with gradient softmax(z) - t."""

    def test_uniform_target_half_probs(self):
        loss = soft_cross_entropy_oracle([0.5, 0.5], log_softmax(np.array([0.0, 0.0])))
        assert abs(loss - math.log(2)) < 1e-12

    def test_confident_correct_prediction(self):
        loss = soft_cross_entropy_oracle([1.0, 0.0], log_softmax(np.array([25.0, 0.0])))
        assert loss < 1e-8

    def test_gradient_is_probs_minus_target(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            target = softmax(rng.standard_normal(k))
            logits = rng.standard_normal(k)
            grad = softmax(logits) - target

            def loss_of(z, target=target):
                return soft_cross_entropy_oracle(target, log_softmax(z))

            fd = fd_gradient(loss_of, logits)
            assert relative_error(grad, fd) < 1e-4


class TestAalsLoss:
    """A part head's term against its ``aals_targets`` row."""

    def test_alpha_one_equals_hard_cross_entropy_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            labels = rng.integers(0, k, size=5)
            logits = rng.standard_normal((5, k))
            targets = aals_targets(labels, k, np.ones(5))
            assert np.array_equal(targets, np.eye(k)[labels])
            assert np.array_equal(softmax(logits) - targets, softmax(logits) - np.eye(k)[labels])
            for label, log_q in zip(labels, log_softmax(logits)):
                direct = aals_loss_oracle(int(label), 1.0, log_q)
                assert direct == soft_cross_entropy_oracle(np.eye(k)[label], log_q)

    def test_uniform_probs_value(self):
        k, alpha = 7, 0.3
        loss = aals_loss_oracle(2, alpha, log_softmax(np.zeros(k)))
        assert abs(loss - alpha * math.log(k)) < 1e-12

    def test_decomposition_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            k = int(rng.integers(2, 51))
            label = int(rng.integers(k))
            alpha = float(rng.uniform(0, 1))
            log_q = log_softmax(rng.standard_normal(k) * 3)
            direct = aals_loss_oracle(label, alpha, log_q)
            smoothed = soft_cross_entropy_oracle(aals_row(label, k, alpha), log_q)
            assert abs(direct - (smoothed - (1 - alpha) * math.log(k))) <= 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            label = int(rng.integers(k))
            alpha = float(rng.uniform(0, 1))
            logits = rng.standard_normal(k)
            grad = softmax(logits) - aals_row(label, k, alpha)

            def loss_of(z, label=label, alpha=alpha):
                return aals_loss_oracle(label, alpha, log_softmax(z))

            fd = fd_gradient(loss_of, logits)
            assert relative_error(grad, fd) < 1e-4


class TestSoftmaxTriplet:
    def test_equal_distances_give_log_two(self):
        feats = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        labels = np.array([0, 0, 1])
        loss, _, skipped = softmax_triplet_loss(feats[:2], labels[:2])
        assert skipped == 2  # no negatives at all
        loss, _, skipped = softmax_triplet_loss(feats, labels)
        # anchor 0: d_pos = d_neg = 2 -> log 2; anchor 1: d_pos=2, d_neg=sqrt(8);
        # anchor 2 skipped (no positive).
        assert skipped == 1
        expected = (math.log(2) + np.logaddexp(0, 2 - math.sqrt(8))) / 2
        assert abs(loss - expected) < 1e-12

    def test_well_separated_triplet_vanishes(self):
        feats = np.array([[0.0], [0.1], [50.0]])
        labels = np.array([0, 0, 1])
        loss, _, _ = softmax_triplet_loss(feats, labels)
        assert loss < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            feats = rng.standard_normal((8, 4))
            labels = rng.integers(0, 3, size=8)
            loss, _, skipped = softmax_triplet_loss(feats, labels)
            ref_loss, _, ref_skipped = softmax_triplet_oracle(feats, labels)
            assert abs(loss - ref_loss) < 1e-10
            assert skipped == ref_skipped

    def test_gradient(self):
        rng = np.random.default_rng(46)
        checked = 0
        while checked < 15:
            feats = rng.standard_normal((8, 3))
            labels = rng.integers(0, 3, size=8)
            loss, grad, _ = softmax_triplet_loss(feats, labels)
            if loss == 0.0:
                continue
            fd = fd_gradient(lambda f: softmax_triplet_loss(f, labels)[0], feats)
            assert relative_error(grad, fd) < 1e-4
            checked += 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(52)
        feats = rng.standard_normal((10, 4))
        labels = rng.integers(0, 3, size=10)
        base, _, base_skip = softmax_triplet_loss(feats, labels)
        perm = rng.permutation(10)
        moved, _, moved_skip = softmax_triplet_loss(feats[perm], labels[perm])
        assert abs(base - moved) < 1e-12
        assert base_skip == moved_skip


def proxy_fixture():
    proxies = np.array(
        [
            [1.0, 0.0],
            [0.9, 0.1],
            [0.0, 1.0],
            [-0.5, 0.5],
        ]
    )
    return CameraProxySet(
        proxies=proxies,
        proxy_camera=np.array([0, 1, 0, 1]),
        proxy_cluster=np.array([0, 0, 1, 2]),
    )


class TestCameraProxies:
    def test_mean_of_rows(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        labels = PseudoLabels(labels=np.array([0, 0, -1]))
        cams = np.array([0, 0, 0])
        out = build_camera_proxies(feats, labels, cams)
        assert out.n_proxies == 1
        assert np.array_equal(out.proxies[0], [0.5, 0.5])

    def test_singleton_group(self):
        feats = np.array([[1.0, 2.0], [5.0, 6.0]])
        labels = PseudoLabels(labels=np.array([0, 0]))
        out = build_camera_proxies(feats, labels, np.array([0, 1]))
        assert out.n_proxies == 2
        assert np.array_equal(out.proxies[0], [1.0, 2.0])
        assert np.array_equal(out.proxies[1], [5.0, 6.0])

    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(47)
        feats = rng.standard_normal((30, 4))
        raw = rng.integers(0, 3, size=30)
        raw[:3] = [0, 1, 2]
        labels = PseudoLabels(labels=raw)
        cams = rng.integers(0, 2, size=30)
        out = build_camera_proxies(feats, labels, cams)
        for m in range(out.n_proxies):
            mask = (raw == out.proxy_cluster[m]) & (cams == out.proxy_camera[m])
            assert np.abs(out.proxies[m] - feats[mask].mean(axis=0)).max() < 1e-12

    def test_missing_cameras_rejected(self):
        labels = PseudoLabels(labels=np.array([0]))
        with pytest.raises(ValueError, match="camera"):
            build_camera_proxies(np.ones((1, 2)), labels, None)


def inter_camera_loss(feature, own_label, own_cam, proxies, weights):
    """One sample through the batch form: (loss, gradient, skipped flag)."""
    loss, grad, skipped = inter_camera_loss_batch(
        np.asarray(feature)[None, :], np.array([own_label]), np.array([own_cam]),
        proxies, weights,
    )
    return loss, grad[0], skipped == 1


class TestInterCameraLoss:
    def test_equal_dot_products_give_log_two(self):
        proxies = CameraProxySet(
            proxies=np.array([[1.0, 0.0], [1.0, 0.0]]),
            proxy_camera=np.array([1, 0]),
            proxy_cluster=np.array([0, 1]),
        )
        for tau in (0.07, 1.0, 5.0):
            loss, _, skipped = inter_camera_loss(
                np.array([1.0, 0.0]), 0, 0, proxies, LossWeights(tau=tau)
            )
            assert not skipped
            assert abs(loss - math.log(2)) < 1e-12

    def test_no_cross_camera_positive_skips(self):
        loss, grad, skipped = inter_camera_loss(
            np.array([1.0, 0.0]), 2, 1, proxy_fixture(), LossWeights()
        )
        assert skipped and loss == 0.0 and np.all(grad == 0.0)

    def test_handcrafted_value(self):
        w = LossWeights(tau=0.07, n_hard_negatives=50)
        f = np.array([0.8, 0.6])
        prox = proxy_fixture()
        loss, _, skipped = inter_camera_loss(f, 0, 0, prox, w)
        assert not skipped
        sims = prox.proxies @ f
        pos = [1]  # cluster 0, other camera
        support = [1, 2, 3]
        denom = sum(math.exp(sims[k] / w.tau) for k in support)
        expected = -sum(
            math.log(math.exp(sims[j] / w.tau) / denom) for j in pos
        ) / len(pos)
        assert abs(loss - expected) < 1e-10

    def test_duplicate_negative_changes_loss(self):
        prox = proxy_fixture()
        w = LossWeights(tau=0.5)
        f = np.array([0.8, 0.6])
        base, _, _ = inter_camera_loss(f, 0, 0, prox, w)
        duplicated = CameraProxySet(
            proxies=np.vstack([prox.proxies, prox.proxies[2]]),
            proxy_camera=np.append(prox.proxy_camera, 1),
            proxy_cluster=np.append(prox.proxy_cluster, 1),
        )
        dup, _, _ = inter_camera_loss(f, 0, 0, duplicated, w)
        assert dup != base

    def test_hard_negative_cap(self):
        rng = np.random.default_rng(48)
        proxies = CameraProxySet(
            proxies=rng.standard_normal((40, 3)),
            proxy_camera=np.tile([0, 1], 20),
            proxy_cluster=np.repeat(np.arange(20), 2),
        )
        w = LossWeights(tau=0.07, n_hard_negatives=5)
        f = rng.standard_normal(3)
        loss, _, skipped = inter_camera_loss(f, 0, 0, proxies, w)
        assert not skipped and np.isfinite(loss)

    def test_gradient(self):
        # Moderate temperature keeps the softmax away from saturation,
        # where the true gradient underflows below finite-difference noise.
        rng = np.random.default_rng(49)
        prox = proxy_fixture()
        w = LossWeights(tau=0.5)
        for _ in range(15):
            f = rng.standard_normal(2)
            f /= np.linalg.norm(f)
            _, grad, skipped = inter_camera_loss(f, 0, 0, prox, w)
            assert not skipped
            fd = fd_gradient(lambda x: inter_camera_loss(x, 0, 0, prox, w)[0], f)
            assert relative_error(grad, fd) < 1e-4

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(50)
        prox = proxy_fixture()
        w = LossWeights(tau=0.3)
        feats = rng.standard_normal((6, 2))
        labels = np.array([0, 0, 1, 1, 2, 0])
        cams = np.array([0, 1, 0, 1, 0, 1])
        base, _, _ = inter_camera_loss_batch(feats, labels, cams, prox, w)
        perm = rng.permutation(6)
        permuted, _, _ = inter_camera_loss_batch(
            feats[perm], labels[perm], cams[perm], prox, w
        )
        assert abs(base - permuted) < 1e-12


class TestBatchLossesAgainstLoops:
    """The batch losses against the per-sample loop forms in ``oracles``."""

    def test_random_batches_match_loop_oracles(self):
        # Continuous random draws: no two similarities or distances tie.
        rng = np.random.default_rng(53)
        for _ in range(300):
            b, m, d = int(rng.integers(1, 24)), int(rng.integers(0, 24)), int(rng.integers(2, 8))
            prox = CameraProxySet(
                proxies=rng.standard_normal((m, d)),
                proxy_camera=rng.integers(0, 3, size=m),
                proxy_cluster=rng.integers(0, 5, size=m),
            )
            w = LossWeights(
                tau=float(rng.uniform(0.2, 1.0)), n_hard_negatives=int(rng.integers(1, 10))
            )
            feats = rng.standard_normal((b, d))
            labels = rng.integers(-1, 5, size=b)
            cams = rng.integers(0, 3, size=b)
            loss, grad, skipped = inter_camera_loss_batch(feats, labels, cams, prox, w)
            ref_loss, ref_grad, ref_skipped = inter_camera_loss_batch_oracle(
                feats, labels, cams, prox, w
            )
            assert skipped == ref_skipped
            assert abs(loss - ref_loss) <= 1e-12
            assert np.abs(grad - ref_grad).max(initial=0.0) <= 1e-12

            labels = rng.integers(0, 4, size=b)
            loss, grad, skipped = softmax_triplet_loss(feats, labels)
            ref_loss, ref_grad, ref_skipped = softmax_triplet_oracle(feats, labels)
            assert skipped == ref_skipped
            assert abs(loss - ref_loss) <= 1e-12
            assert np.abs(grad - ref_grad).max(initial=0.0) <= 1e-12

    def test_tie_heavy_batches_match_loop_oracles(self):
        # Half-integer entries: every similarity and squared distance is
        # exact, so the many ties resolve the same way in both forms.
        rng = np.random.default_rng(54)
        for _ in range(100):
            m = 40
            prox = CameraProxySet(
                proxies=np.round(rng.standard_normal((m, 6)) * 2) / 2,
                proxy_camera=rng.integers(0, 3, size=m),
                proxy_cluster=rng.integers(0, 6, size=m),
            )
            w = LossWeights(tau=0.5, n_hard_negatives=int(rng.integers(1, 10)))
            feats = np.round(rng.standard_normal((24, 6)) * 2) / 2
            labels = rng.integers(0, 6, size=24)
            cams = rng.integers(0, 3, size=24)
            for ours, ref in [
                (inter_camera_loss_batch(feats, labels, cams, prox, w),
                 inter_camera_loss_batch_oracle(feats, labels, cams, prox, w)),
                (softmax_triplet_loss(feats, labels), softmax_triplet_oracle(feats, labels)),
            ]:
                assert ours[2] == ref[2]
                assert abs(ours[0] - ref[0]) <= 1e-12
                assert np.abs(ours[1] - ref[1]).max() <= 1e-12

    @staticmethod
    def tied_proxies():
        # Dyadic entries: every similarity with [1, 0] is exact. Proxies
        # 3, 4 and 5 tie at 0.25 with different vectors, so which of them
        # is a hard negative shows in the gradient.
        return CameraProxySet(
            proxies=np.array(
                [
                    [1.0, 0.0],  # own cluster, own camera: neither
                    [0.75, 0.25],  # the positive
                    [0.5, 0.0],
                    [0.25, 0.5],
                    [0.25, -0.5],
                    [0.25, 0.0],
                    [-0.5, 0.0],
                ]
            ),
            proxy_camera=np.array([0, 1, 0, 1, 1, 0, 0]),
            proxy_cluster=np.array([0, 0, 1, 2, 1, 3, 2]),
        )

    @pytest.mark.parametrize("n_hard, negatives", [(2, [2, 3]), (3, [2, 3, 4])])
    def test_hard_negative_ties_go_to_smaller_index(self, n_hard, negatives):
        prox = self.tied_proxies()
        w = LossWeights(tau=0.5, n_hard_negatives=n_hard)
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, grad, skipped = inter_camera_loss_batch(
            feats, np.array([0, 0]), np.array([0, 0]), prox, w
        )
        support = [1] + negatives
        logits = prox.proxies[support, 0] / w.tau
        probs = np.exp(logits) / np.exp(logits).sum()
        expected_grad = (probs @ prox.proxies[support] - prox.proxies[1]) / w.tau / 2
        assert skipped == 0
        assert abs(loss - -math.log(probs[0])) < 1e-12
        assert np.abs(grad - expected_grad).max() < 1e-12

    def test_hard_negatives_beyond_the_pool_take_it_all(self):
        prox = self.tied_proxies()
        feats = np.array([[0.6, 0.8], [0.8, -0.6]])
        labels, cams = np.array([0, 0]), np.array([0, 0])
        every = inter_camera_loss_batch(feats, labels, cams, prox, LossWeights(n_hard_negatives=5))
        beyond = inter_camera_loss_batch(feats, labels, cams, prox, LossWeights(n_hard_negatives=50))
        assert every[0] == beyond[0] and np.array_equal(every[1], beyond[1])
        ref = inter_camera_loss_batch_oracle(feats, labels, cams, prox, LossWeights(n_hard_negatives=50))
        assert abs(beyond[0] - ref[0]) < 1e-12 and np.abs(beyond[1] - ref[1]).max() < 1e-12

    def test_empty_negative_pool(self):
        # One cluster only: the support is the single positive, so its
        # softmax probability is 1 and loss and gradient vanish.
        prox = CameraProxySet(
            proxies=np.array([[1.0, 0.0], [0.0, 1.0]]),
            proxy_camera=np.array([0, 1]),
            proxy_cluster=np.array([0, 0]),
        )
        loss, grad, skipped = inter_camera_loss_batch(
            np.array([[0.6, 0.8]]), np.array([0]), np.array([0]), prox, LossWeights()
        )
        assert skipped == 0 and loss == 0.0 and np.all(grad == 0.0)

    def test_empty_proxy_set_skips_every_sample(self):
        prox = CameraProxySet(
            proxies=np.zeros((0, 2)),
            proxy_camera=np.zeros(0, dtype=np.int64),
            proxy_cluster=np.zeros(0, dtype=np.int64),
        )
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        loss, grad, skipped = inter_camera_loss_batch(
            feats, np.array([0, 1, 0]), np.array([0, 1, 2]), prox, LossWeights()
        )
        assert skipped == 3 and loss == 0.0 and np.all(grad == 0.0)

    def test_all_skipped_batches(self):
        prox = proxy_fixture()
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        # Outliers only.
        loss, grad, skipped = inter_camera_loss_batch(
            feats, np.array([-1, -1, -1]), np.array([0, 1, 0]), prox, LossWeights()
        )
        assert skipped == 3 and loss == 0.0 and np.all(grad == 0.0)
        # Clusters 1 and 2 have one proxy each, under cameras 0 and 1: a
        # sample on that camera has no cross-camera positive.
        loss, grad, skipped = inter_camera_loss_batch(
            feats, np.array([1, 2, 1]), np.array([0, 1, 0]), prox, LossWeights()
        )
        assert skipped == 3 and loss == 0.0 and np.all(grad == 0.0)

    def test_triplet_mining_ties_go_to_smaller_index(self):
        # Anchor 0's positives 1 and 2 tie at distance 1, its negatives 3,
        # 4 and 5 at distance 2; all squared distances are exact.
        feats = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0], [0.0, -2.0]]
        )
        labels = np.array([0, 0, 0, 1, 1, 1])
        loss, grad, skipped = softmax_triplet_loss(feats, labels)
        ref_loss, ref_grad, ref_skipped = softmax_triplet_oracle(feats, labels)
        assert skipped == ref_skipped == 0
        assert abs(loss - ref_loss) < 1e-12
        assert np.abs(grad - ref_grad).max() < 1e-12

    def test_triplet_batch_without_a_valid_anchor(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for labels in (np.array([0, 0, 0]), np.array([0, 1, 2])):
            loss, grad, skipped = softmax_triplet_loss(feats, labels)
            assert skipped == 3 and loss == 0.0 and np.all(grad == 0.0)


class TestTotalLoss:
    def test_lambda_zero_ignores_camera_term(self):
        w = LossWeights(lambda_cam=0.0)
        a = total_loss({"aals": 1.0, "pglr": 2.0, "triplet": 3.0, "cam": 99.0}, w)
        b = total_loss({"aals": 1.0, "pglr": 2.0, "triplet": 3.0, "cam": -5.0}, w)
        assert a == b == 6.0

    def test_all_zero(self):
        w = LossWeights()
        assert total_loss({"aals": 0, "pglr": 0, "triplet": 0, "cam": 0}, w) == 0.0

    def test_weighted_sum(self):
        rng = np.random.default_rng(51)
        vals = rng.standard_normal(4)
        w = LossWeights(lambda_cam=0.5)
        got = total_loss(
            {"gce": vals[0], "pce": vals[1], "triplet": vals[2], "cam": vals[3]},
            w,
            mode="baseline",
        )
        assert abs(got - (vals[0] + vals[1] + vals[2] + 0.5 * vals[3])) < 1e-12

    def test_missing_component_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            total_loss({"aals": 1.0}, LossWeights())
        with pytest.raises(ValueError, match="mode"):
            total_loss({}, LossWeights(), mode="other")


@pytest.mark.parametrize("name", ["lambda_cam", "tau", "n_hard_negatives"])
def test_loss_weights_reject_non_finite_numbers(name, non_finite):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        LossWeights(**{name: non_finite})
