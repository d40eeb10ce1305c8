"""Refined soft-label construction.

Two refinement routes share the cross agreement scores:

* agreement-aware label smoothing (AALS) blends the one-hot pseudo-label
  with the uniform distribution, per part, using the part's agreement as
  the confidence weight;
* part-guided label refinement (PGLR) blends the one-hot pseudo-label with
  an agreement-softmax-weighted ensemble of the part classifiers'
  predictions, producing the target for the global classifier.

Targets are constants: no gradient flows through them, the part
predictions entering PGLR are the current forward outputs, detached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import SoftLabel, as_probs, one_hot

WEIGHT_SUM_ATOL = 1e-6


@dataclass(frozen=True)
class RefinementConfig:
    """beta balances one-hot versus ensembled prediction in PGLR targets.

    During the first ``aals_warmup_epochs`` epochs the smoothing weight is
    forced to 1, i.e. parts train on hard labels. Setting
    ``constant_alpha`` replaces the per-sample agreement weight with a
    fixed value after warm-up (vanilla label smoothing mode).
    """

    beta: float = 0.5
    aals_warmup_epochs: int = 5
    constant_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.aals_warmup_epochs < 0:
            raise ValueError("aals_warmup_epochs must be >= 0")
        if self.constant_alpha is not None and not 0.0 <= self.constant_alpha <= 1.0:
            raise ValueError("constant_alpha must lie in [0, 1]")


def effective_alpha(agreement, epoch: int, cfg: RefinementConfig) -> np.ndarray:
    """Smoothing weights at a given epoch, elementwise over ``agreement``.

    Returns an array of the input's shape: ones during warm-up, then
    ``constant_alpha`` when set, else the agreement itself.
    """
    a = np.asarray(agreement, dtype=np.float64)
    if epoch < cfg.aals_warmup_epochs:
        return np.ones_like(a)
    if cfg.constant_alpha is not None:
        return np.full_like(a, cfg.constant_alpha)
    return a


def aals_target(label: int, k_clusters: int, alpha: float) -> SoftLabel:
    """Smoothed target alpha * onehot(label) + (1 - alpha) * uniform.

    alpha = 1 reproduces the hard label exactly; alpha = 0 the uniform
    vector exactly.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} out of [0, 1]")
    if not 0 <= label < k_clusters:
        raise ValueError(f"label {label} out of range for K={k_clusters}")
    probs = np.full(k_clusters, (1.0 - alpha) / k_clusters, dtype=np.float64)
    probs[label] += alpha
    return SoftLabel(probs)


def pglr_weights(agreements: Sequence[float]) -> np.ndarray:
    """Softmax of a part-agreement vector; the part ensemble weights."""
    a = np.asarray(agreements, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("agreements must be a non-empty vector")
    if a.min() < 0.0 or a.max() > 1.0:
        raise ValueError("agreements must lie in [0, 1]")
    shifted = np.exp(a - a.max())
    return shifted / shifted.sum()


def pglr_target(
    label: int,
    k_clusters: int,
    part_preds: Sequence,
    weights: Sequence[float],
    beta: float,
) -> SoftLabel:
    """Target beta * onehot(label) + (1 - beta) * sum_n w_n * q_n.

    ``part_preds`` are the per-part prediction vectors (already softmaxed);
    ``weights`` must sum to 1. beta = 1 reproduces the one-hot label
    exactly; beta = 0 keeps only the weighted part ensemble.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta {beta} out of [0, 1]")
    w = np.asarray(weights, dtype=np.float64)
    if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_ATOL:
        raise ValueError(f"ensemble weights sum to {float(w.sum())!r}, expected 1")
    preds = np.stack([as_probs(p) for p in part_preds])
    if preds.shape[0] != w.shape[0]:
        raise ValueError("one weight per part prediction is required")
    if preds.shape[1] != k_clusters:
        raise ValueError(
            f"predictions have {preds.shape[1]} classes, expected K={k_clusters}"
        )
    ensemble = w @ preds
    probs = beta * one_hot(label, k_clusters) + (1.0 - beta) * ensemble
    return SoftLabel(probs)


def aals_targets(labels: np.ndarray, k_clusters: int, alphas: np.ndarray) -> np.ndarray:
    """Vectorized smoothed targets, one row per sample."""
    labels = np.asarray(labels)
    alphas = np.asarray(alphas, dtype=np.float64)
    if np.any((alphas < 0.0) | (alphas > 1.0)):
        raise ValueError("alphas must lie in [0, 1]")
    out = np.repeat(((1.0 - alphas) / k_clusters)[:, None], k_clusters, axis=1)
    out[np.arange(labels.size), labels] += alphas
    return out


def pglr_targets(
    labels: np.ndarray,
    k_clusters: int,
    part_preds: np.ndarray,
    agreements: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Vectorized PGLR targets.

    Args:
        labels: (B,) hard cluster indices.
        part_preds: (n_parts, B, K) prediction vectors, treated as constants.
        agreements: (B, n_parts) cross agreement scores.
        beta: one-hot versus ensemble mix.
    """
    a = np.asarray(agreements, dtype=np.float64)
    shifted = np.exp(a - a.max(axis=1, keepdims=True))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    ensemble = np.einsum("bn,nbk->bk", weights, part_preds)
    out = (1.0 - beta) * ensemble
    out[np.arange(labels.size), np.asarray(labels)] += beta
    return out
