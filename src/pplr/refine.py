"""Refined soft-label construction.

Two refinement routes share the cross agreement scores:

* agreement-aware label smoothing (AALS) blends the one-hot pseudo-label
  with the uniform distribution, per part, using the part's agreement as
  the confidence weight;
* part-guided label refinement (PGLR) blends the one-hot pseudo-label with
  an agreement-softmax-weighted ensemble of the part classifiers'
  predictions, producing the target for the global classifier.

Targets are built for a whole batch, one row per sample, and are
constants: no gradient flows through them, the part predictions entering
PGLR are the current forward outputs, detached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _require_finite
from .objectives import softmax


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
        _require_finite(self, "aals_warmup_epochs")
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


def aals_targets(labels: np.ndarray, k_clusters: int, alphas: np.ndarray) -> np.ndarray:
    """Smoothed targets alpha * onehot(label) + (1 - alpha) * uniform, one
    row per sample; alpha = 1 gives the hard label and alpha = 0 the
    uniform vector, both exactly."""
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
    """Targets beta * onehot(label) + (1 - beta) * sum_n w_n * q_n, one row
    per sample, w the softmax of the sample's part agreements; beta = 1
    gives the one-hot label exactly, beta = 0 only the part ensemble.

    Args:
        labels: (B,) hard cluster indices.
        part_preds: (n_parts, B, K) prediction vectors, treated as constants.
        agreements: (B, n_parts) cross agreement scores.
        beta: one-hot versus ensemble mix.
    """
    labels = np.asarray(labels)
    ensemble = np.einsum("bn,nbk->bk", softmax(agreements, axis=1), part_preds)
    out = (1.0 - beta) * ensemble
    out[np.arange(labels.size), labels] += beta
    return out
