"""Training losses with analytic gradients, and camera-aware proxies.

All losses are plain numpy with hand-derived gradients; every gradient is
cross-checked against central finite differences in the test suite. The
two feature losses, :func:`softmax_triplet_loss` and
:func:`inter_camera_loss_batch`, work on a whole batch at once; their
per-sample loop forms live only in the test oracles. The classifier
losses against the AALS and PGLR targets are written out in the train
step over :func:`log_softmax`, with gradient ``softmax(z) - target``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .core import PseudoLabels, _frozen, _require_finite
from .neighbors import pairwise_sq_euclidean

MODE_BASELINE = "baseline"
MODE_PPLR = "pplr"

_COMPONENTS = {
    MODE_BASELINE: ("gce", "pce", "triplet", "cam"),
    MODE_PPLR: ("aals", "pglr", "triplet", "cam"),
}


@dataclass(frozen=True)
class LossWeights:
    """Scalar knobs shared by the contrastive camera term.

    ``cam_per_space`` switches the inter-camera loss from the default
    global-feature-only form to averaging the same loss over every feature
    space (proxies built per space).
    """

    lambda_cam: float = 0.5
    tau: float = 0.07
    n_hard_negatives: int = 50
    cam_per_space: bool = False

    def __post_init__(self) -> None:
        _require_finite(self, "lambda_cam", "tau", "n_hard_negatives")
        if self.lambda_cam < 0:
            raise ValueError("lambda_cam must be >= 0")
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if self.n_hard_negatives < 1:
            raise ValueError("n_hard_negatives must be >= 1")


@dataclass(eq=False)
class ClassifierHead:
    """Bias-free linear map over features, one per feature space.

    The weight matrix is mutable: the trainer re-creates heads at every
    clustering stage (K changes) and updates them in place between stages.
    """

    weight: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weight, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("head weight must be K x D")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite head weight")
        self.weight = w

    @property
    def k_classes(self) -> int:
        return self.weight.shape[0]

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weight.T

    def predict(self, features: np.ndarray) -> np.ndarray:
        return softmax(self.logits(features), axis=-1)


@dataclass(frozen=True, eq=False)
class CameraProxySet:
    """Per-(camera, cluster) feature centroids.

    One proxy per non-empty pair, ordered by (cluster, camera); outliers
    never contribute. Proxies are raw means of their member rows.
    """

    proxies: np.ndarray
    proxy_camera: np.ndarray
    proxy_cluster: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.proxies, dtype=np.float64)
        cam = np.asarray(self.proxy_camera, dtype=np.int64)
        clu = np.asarray(self.proxy_cluster, dtype=np.int64)
        if p.ndim != 2 or cam.shape != (p.shape[0],) or clu.shape != (p.shape[0],):
            raise ValueError("proxy arrays disagree on M")
        object.__setattr__(self, "proxies", _frozen(p))
        object.__setattr__(self, "proxy_camera", _frozen(cam))
        object.__setattr__(self, "proxy_cluster", _frozen(clu))

    @property
    def n_proxies(self) -> int:
        return self.proxies.shape[0]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max subtraction)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = np.exp(z - z.max(axis=axis, keepdims=True))
    return shifted / shifted.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax (max subtraction)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_triplet_loss(
    batch_features: np.ndarray, batch_labels: np.ndarray
) -> Tuple[float, np.ndarray, int]:
    """Hard-mined softmax-triplet loss over one batch.

    Per anchor, the hardest positive is the same-label sample at maximum
    L2 distance and the hardest negative the different-label sample at
    minimum L2 distance (mining ties go to the smaller index); the anchor
    contributes softplus(d_pos - d_neg). Anchors lacking a positive or a
    negative are skipped and counted.

    Returns:
        (mean loss over valid anchors, gradient w.r.t. features, skipped count)
    """
    f = np.asarray(batch_features, dtype=np.float64)
    labels = np.asarray(batch_labels)
    b = f.shape[0]
    if labels.shape != (b,):
        raise ValueError("one label per feature row is required")

    dist = np.sqrt(pairwise_sq_euclidean(f).values)
    same = labels[:, None] == labels[None, :]
    other = ~same
    np.fill_diagonal(same, False)
    valid = same.any(axis=1) & other.any(axis=1)
    grad = np.zeros_like(f)
    anchors = np.flatnonzero(valid)
    skipped = b - anchors.size
    if anchors.size == 0:
        return 0.0, grad, skipped

    # argmax/argmin return the first extremum, so ties go to the smaller index.
    pos = np.argmax(np.where(same, dist, -np.inf), axis=1)[anchors]
    neg = np.argmin(np.where(other, dist, np.inf), axis=1)[anchors]
    d_pos = dist[anchors, pos]
    d_neg = dist[anchors, neg]
    margin = d_pos - d_neg
    loss = float(np.logaddexp(0.0, margin).sum() / anchors.size)

    s = (_sigmoid(margin) / anchors.size)[:, None]
    u_pos = _unit_difference(f[anchors], f[pos], d_pos)
    u_neg = _unit_difference(f[anchors], f[neg], d_neg)
    # One (anchor, positive, negative) triple after another, as a loop would.
    rows = np.stack([anchors, pos, neg], axis=1).ravel()
    vals = np.stack([s * (u_pos - u_neg), -s * u_pos, s * u_neg], axis=1)
    np.add.at(grad, rows, vals.reshape(-1, f.shape[1]))
    return loss, grad, skipped


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _unit_difference(a: np.ndarray, b: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Rows of (a - b) / norm; zero where the norm is zero."""
    out = np.zeros_like(a)
    nz = norm != 0.0
    out[nz] = (a[nz] - b[nz]) / norm[nz, None]
    return out


def build_camera_proxies(
    features: np.ndarray, labels: PseudoLabels, camera_ids: np.ndarray
) -> CameraProxySet:
    """Mean feature per non-empty (camera, cluster) pair; outliers excluded."""
    if camera_ids is None:
        raise ValueError("camera ids are required to build camera proxies")
    x = np.asarray(features, dtype=np.float64)
    cams = np.asarray(camera_ids)
    lab = labels.labels
    keys = sorted(
        {(int(lab[i]), int(cams[i])) for i in range(lab.size) if lab[i] >= 0}
    )
    if not keys:
        return CameraProxySet(
            proxies=np.zeros((0, x.shape[1])),
            proxy_camera=np.zeros(0, dtype=np.int64),
            proxy_cluster=np.zeros(0, dtype=np.int64),
        )
    proxies = np.empty((len(keys), x.shape[1]), dtype=np.float64)
    for m, (b, a) in enumerate(keys):
        members = np.flatnonzero((lab == b) & (cams == a))
        proxies[m] = x[members].mean(axis=0)
    clusters, cameras = zip(*keys)
    return CameraProxySet(
        proxies=proxies,
        proxy_camera=np.asarray(cameras, dtype=np.int64),
        proxy_cluster=np.asarray(clusters, dtype=np.int64),
    )


def inter_camera_loss_batch(
    features: np.ndarray,
    labels: np.ndarray,
    cams: np.ndarray,
    proxies: CameraProxySet,
    weights: LossWeights,
) -> Tuple[float, np.ndarray, int]:
    """Contrastive pull toward same-cluster proxies from other cameras.

    For each sample, positives are the proxies sharing its cluster under a
    different camera; negatives are the ``n_hard_negatives`` most similar
    proxies from other clusters (similarity = dot product, ties to the
    smaller proxy index). The sample's loss is the mean negative log
    softmax of its positives over positives plus negatives, at
    temperature ``tau``. Outliers and samples with no positive proxy
    contribute nothing and are counted as skipped.

    Returns:
        (sum of sample losses / B, gradient w.r.t. the features, skipped count)
    """
    f = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    cams = np.asarray(cams)
    b = f.shape[0]
    grads = np.zeros_like(f)
    own = proxies.proxy_cluster[None, :] == labels[:, None]
    pos = own & (proxies.proxy_camera[None, :] != cams[:, None])
    rows = np.flatnonzero((labels >= 0) & pos.any(axis=1))
    skipped = b - rows.size
    if rows.size == 0:
        return 0.0, grads, skipped

    p = proxies.proxies
    own, pos = own[rows], pos[rows]
    sims = f[rows] @ p.T
    # Hard negatives: the n smallest keys per row, where the key ranks
    # other-cluster columns by descending similarity and own-cluster ones
    # last. Ties at the n-th key go to the smaller proxy index.
    n = weights.n_hard_negatives
    neg = ~own
    if n < p.shape[0]:
        key = np.where(own, np.inf, -sims)
        cut = np.partition(key, n - 1, axis=1)[:, n - 1 : n]
        below = key < cut
        at = key == cut
        neg &= below | (at & (np.cumsum(at, axis=1) <= n - below.sum(axis=1, keepdims=True)))
    support = pos | neg

    logits = np.where(support, sims / weights.tau, -np.inf)
    top = logits.max(axis=1, keepdims=True)
    log_probs = logits - (top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True)))
    n_pos = pos.sum(axis=1)
    losses = -np.where(pos, log_probs, 0.0).sum(axis=1) / n_pos

    # d loss / d f = (softmax-weighted proxies - mean of positive proxies) / tau
    probs = np.exp(log_probs)
    pos_mean = (pos @ p) / n_pos[:, None]
    grads[rows] = (probs @ p - pos_mean) / weights.tau / b
    return float(losses.sum() / b), grads, skipped


def total_loss(
    components: Mapping[str, float], weights: LossWeights, mode: str = MODE_PPLR
) -> float:
    """Weighted sum of the per-batch loss components.

    ``components`` must provide the keys for the requested mode:
    gce/pce/triplet/cam for "baseline", aals/pglr/triplet/cam for "pplr".
    lambda_cam = 0 makes the result independent of the camera term.
    """
    if mode not in _COMPONENTS:
        raise ValueError(f"unknown mode {mode!r}")
    names = _COMPONENTS[mode]
    missing = [name for name in names if name not in components]
    if missing:
        raise ValueError(f"missing loss components for mode {mode!r}: {missing}")
    g, p, tri, cam = (float(components[name]) for name in names)
    return g + p + tri + weights.lambda_cam * cam
