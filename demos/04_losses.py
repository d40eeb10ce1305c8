"""The training losses and their analytic gradients.

The classifier heads train on cross-entropy against their targets, whose
gradient with respect to the logits is softmax(z) - target; the feature
losses return their gradient alongside the value. This script spells out
the hand cases and verifies one gradient against central finite
differences, the same check the test suite runs at scale.
"""

import math

import numpy as np

from pplr import (
    LossWeights,
    PseudoLabels,
    aals_targets,
    build_camera_proxies,
    inter_camera_loss_batch,
    softmax_triplet_loss,
)
from pplr.objectives import log_softmax, softmax

# Cross-entropy of a uniform target against a uniform prediction is log 2.
target, logits = np.array([0.5, 0.5]), np.array([0.0, 0.0])
loss = float(-(target * log_softmax(logits)).sum())
grad = softmax(logits) - target
print(f"H(u, u) = {loss:.6f} (log 2 = {math.log(2):.6f}), grad = {grad}")

# The smoothing loss of a part head interpolates between hard
# cross-entropy (alpha=1) and the uniform KL term (alpha=0), as the train
# step computes it. It is cross-entropy against the AALS target less the
# constant (1 - alpha) log K, so its gradient is softmax(z) minus that target.
log_q = log_softmax(np.array([2.0, 0.5, -1.0]))
k = log_q.size
for alpha in (1.0, 0.5, 0.0):
    value = alpha * -log_q[0] + (1.0 - alpha) * (-np.log(k) - log_q.mean())
    smoothed = -(aals_targets(np.array([0]), k, np.array([alpha]))[0] * log_q).sum()
    assert abs(value - (smoothed - (1.0 - alpha) * np.log(k))) < 1e-12
    print(f"aals_loss(label=0, alpha={alpha:3.1f}) = {value:.4f}")

# Hard-mined triplet: equal positive and negative distances give log 2.
feats = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
labels = np.array([0, 0, 1])
value, grad, skipped = softmax_triplet_loss(feats, labels)
print(f"\ntriplet loss = {value:.4f} (skipped anchors without pos/neg: {skipped})")

# Camera-aware proxies: centroids per (camera, cluster) pair.
rng = np.random.default_rng(8)
bank_feats = rng.standard_normal((12, 4))
bank_feats /= np.linalg.norm(bank_feats, axis=1, keepdims=True)
pseudo = PseudoLabels(labels=np.repeat([0, 1, 2], 4))
cams = np.tile([0, 1], 6)
proxies = build_camera_proxies(bank_feats, pseudo, cams)
print(f"proxies: {proxies.n_proxies} for 3 clusters x 2 cameras")

# The trainer scores a whole batch at once: every sample is pulled toward
# its cluster's proxies under other cameras, against the 3 hardest
# other-cluster proxies.
w = LossWeights(tau=0.4, n_hard_negatives=3)
batch = [0, 1, 4, 5]
value, grad, skipped = inter_camera_loss_batch(
    bank_feats[batch], pseudo.labels[batch], cams[batch], proxies, w
)
print(f"inter-camera loss for samples {batch}: {value:.4f} (skipped: {skipped})")

# Finite-difference check of that gradient, coordinate by coordinate.
step = 1e-6
fd = np.zeros_like(grad)
for idx in np.ndindex(*fd.shape):
    probe = bank_feats[batch].copy()
    probe[idx] += step
    up, _, _ = inter_camera_loss_batch(probe, pseudo.labels[batch], cams[batch], proxies, w)
    probe[idx] -= 2 * step
    down, _, _ = inter_camera_loss_batch(probe, pseudo.labels[batch], cams[batch], proxies, w)
    fd[idx] = (up - down) / (2 * step)
print(f"max |analytic - finite difference| = {np.abs(grad - fd).max():.2e}")
