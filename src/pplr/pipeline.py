"""Alternating clustering/training driver over a toy linear backbone.

Each epoch first re-derives pseudo-labels and cross agreement scores from
the current features (clustering stage), then runs PK-sampled gradient
steps on the classifier heads and the shared linear projection (training
stage). The projection stands in for a feature extractor: it is the
reason features, and therefore pseudo-labels, evolve between epochs.

Every artifact produced by :func:`run` is a pure function of the config
and the input bank bytes. Reports serialize without wall-clock times so
that identical runs produce identical files.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .agreement import agreement_matrix
from .cluster import DbscanParams, cluster_centroids, dbscan
from .core import (
    ConfigError,
    CrossAgreement,
    DataFormatError,
    FeatureBank,
    NoValidQueryError,
    NumericalError,
    PseudoLabels,
    _require_finite,
)
from .evaluate import LabelQuality, RetrievalResult, label_quality, map_cmc
from .neighbors import k_reciprocal_jaccard, pairwise_sq_euclidean, topk_ranked_lists
from .objectives import (
    MODE_BASELINE,
    MODE_PPLR,
    CameraProxySet,
    ClassifierHead,
    LossWeights,
    build_camera_proxies,
    inter_camera_loss_batch,
    log_softmax,
    softmax_triplet_loss,
)
from .refine import RefinementConfig, aals_targets, effective_alpha, pglr_targets

# Clustering-distance constants: the re-ranked Jaccard metric with its
# canonical parameters (encoding depth 30, query expansion 6, no blend).
CLUSTER_K1 = 30
CLUSTER_K2 = 6
CLUSTER_BLEND_LAMBDA = 0.0

MODEL_MAGIC = b"PPLM"
MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sIIIII")


@dataclass(frozen=True)
class PipelineConfig:
    """Desk-scale driver configuration; defaults favor quick, seeded runs."""

    epochs: int = 15
    iters_per_epoch: int = 50
    batch_p: int = 16
    batch_k: int = 4
    learning_rate: float = 0.5
    k_agreement: int = 20
    proj_dim: int = 32
    dbscan: DbscanParams = field(default_factory=DbscanParams)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    mode: str = MODE_PPLR

    def __post_init__(self) -> None:
        counts = ("iters_per_epoch", "batch_p", "batch_k", "k_agreement", "proj_dim")
        _require_finite(self, *counts, "epochs", "learning_rate")
        for name in counts:
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_p * self.batch_k < 4:
            raise ValueError("batch_p * batch_k must be >= 4")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mode not in (MODE_BASELINE, MODE_PPLR):
            raise ValueError(f"mode must be '{MODE_BASELINE}' or '{MODE_PPLR}'")


@dataclass(eq=False)
class ToyModel:
    """Learnable linear projection plus one classifier head per space."""

    projection: np.ndarray
    heads: List[ClassifierHead] = field(default_factory=list)

    def __post_init__(self) -> None:
        p = np.asarray(self.projection, dtype=np.float64)
        if p.ndim != 2 or not np.all(np.isfinite(p)):
            raise ValueError("projection must be a finite 2-D matrix")
        self.projection = p


@dataclass(eq=False)
class TrainingTrace:
    """Per-iteration loss components plus aggregated warnings."""

    iterations: List[Dict[str, float]] = field(default_factory=list)
    replacement_batches: int = 0
    triplet_skipped: int = 0
    cam_skipped: int = 0
    skipped_stage: bool = False

    def warnings_dict(self) -> Dict[str, int]:
        return {
            "replacement_batches": self.replacement_batches,
            "triplet_skipped": self.triplet_skipped,
            "cam_skipped": self.cam_skipped,
            "skipped_stage": int(self.skipped_stage),
        }


@dataclass(frozen=True, eq=False)
class EpochReport:
    """Everything observable about one epoch.

    Quality and retrieval metrics are present only when the bank carries
    ground-truth ids. Retrieval also needs camera ids; when no query has
    a cross-camera positive it stays None and ``warnings`` gains
    ``no_valid_query: 1``, a key absent from every other epoch. The
    report holds no wall-clock time, so identical runs serialize to
    identical bytes.
    """

    epoch: int
    k_clusters: int
    n_outliers: int
    mean_agreement: Tuple[float, ...]
    losses: Tuple[Dict[str, float], ...]
    warnings: Dict[str, int]
    raw_quality: Optional[LabelQuality] = None
    refined_quality: Optional[LabelQuality] = None
    retrieval: Optional[RetrievalResult] = None

    def to_json_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "k_clusters": self.k_clusters,
            "n_outliers": self.n_outliers,
            "mean_agreement": list(self.mean_agreement),
            "losses": list(self.losses),
            "warnings": self.warnings,
            "raw_quality": None if self.raw_quality is None else vars(self.raw_quality).copy(),
            "refined_quality": None
            if self.refined_quality is None
            else vars(self.refined_quality).copy(),
            "retrieval": None if self.retrieval is None else self.retrieval.to_json_dict(),
        }


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    labels: PseudoLabels
    agreement: CrossAgreement


def _epoch_rng(seed: int, slot: int) -> np.random.Generator:
    # Child streams keyed by (seed, slot); slot 0 is model init, slot 1+e
    # drives epoch e. Spawning is deterministic in the slot index.
    children = np.random.SeedSequence(seed).spawn(slot + 1)
    return np.random.default_rng(children[slot])


def initial_model(cfg: PipelineConfig, bank_raw: FeatureBank) -> ToyModel:
    """Seed-determined random projection, before any training."""
    rng = _epoch_rng(cfg.seed, 0)
    projection = rng.standard_normal((bank_raw.dim, cfg.proj_dim)) / np.sqrt(bank_raw.dim)
    return ToyModel(projection=projection)


def _project_spaces(bank_raw: FeatureBank, projection: np.ndarray, rows=slice(None)):
    """Per space: the raw ``rows`` in float64, their projections at unit L2
    norm, and the norms. A zero or non-finite norm (collapsed or diverged
    projection) is a NumericalError naming the space and the sample."""
    raw, feats, norms = [], [], []
    for space_id, m in bank_raw.spaces():
        x = np.asarray(m[rows], dtype=np.float64)
        v = x @ projection
        # A diverged projection overflows here; the check below reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            nrm = np.linalg.norm(v, axis=1)
        bad = np.flatnonzero((nrm == 0.0) | ~np.isfinite(nrm))
        if bad.size:
            sample = np.arange(bank_raw.n_samples)[rows][bad[0]]
            raise NumericalError(
                f"projection gave {space_id} row {sample} a zero or non-finite norm"
            )
        raw.append(x)
        feats.append(v / nrm[:, None])
        norms.append(nrm)
    return raw, feats, norms


def project_bank(model: ToyModel, bank_raw: FeatureBank) -> FeatureBank:
    """Project every raw space through the model and L2-normalize rows."""
    _, mats, _ = _project_spaces(bank_raw, model.projection)
    return FeatureBank(
        global_feats=mats[0],
        part_feats=tuple(mats[1:]),
        camera_ids=bank_raw.camera_ids,
        gt_ids=bank_raw.gt_ids,
        normalized=True,
    )


def _clusterable_n(n: int) -> int:
    """``n``, checked: clustering needs a neighbor for every sample."""
    if n < 2:
        raise ConfigError(f"clustering needs at least 2 samples; the bank has N={n}")
    return n


def cluster_labels(global_feats: np.ndarray, cfg: PipelineConfig) -> PseudoLabels:
    """Pseudo-labels: DBSCAN over the re-ranked distance of the unit-norm
    global features, with the encoding depths clamped to N - 1."""
    n = _clusterable_n(global_feats.shape[0])
    k1 = min(CLUSTER_K1, n - 1)
    k2 = min(CLUSTER_K2, k1)
    cluster_dist = k_reciprocal_jaccard(global_feats, k1, k2, CLUSTER_BLEND_LAMBDA)
    return dbscan(cluster_dist, cfg.dbscan)


def agreement_scores(bank: FeatureBank, cfg: PipelineConfig) -> CrossAgreement:
    """Agreement of each part's top-k lists (plain squared Euclidean) with
    the global ones; ``k_agreement`` is clamped to N - 1."""
    if not bank.normalized:
        raise ValueError("clustering requires a normalized bank")
    n = _clusterable_n(bank.n_samples)
    k = min(cfg.k_agreement, n - 1)
    global_lists, *part_lists = [
        topk_ranked_lists(pairwise_sq_euclidean(mat), k) for _, mat in bank.spaces()
    ]
    return agreement_matrix(global_lists, part_lists)


def clustering_stage(bank: FeatureBank, cfg: PipelineConfig) -> ClusteringResult:
    """Both halves of an epoch's clustering: pseudo-labels and agreement."""
    return ClusteringResult(
        labels=cluster_labels(bank.global_feats, cfg), agreement=agreement_scores(bank, cfg)
    )


def init_heads(feats: FeatureBank, labels: PseudoLabels) -> List[ClassifierHead]:
    """Fresh heads with rows set to cluster centroids, one per space; none
    when there is no cluster."""
    if labels.k_clusters == 0:
        return []
    return [
        ClassifierHead(weight=cluster_centroids(mat, labels)) for _, mat in feats.spaces()
    ]


def _pk_sample(
    rng: np.random.Generator,
    members: Sequence[np.ndarray],
    batch_p: int,
    batch_k: int,
) -> Tuple[np.ndarray, bool]:
    """PK batch: batch_p clusters (distinct when possible) x batch_k members."""
    k = len(members)
    with_replacement = k < batch_p
    chosen = rng.choice(k, size=batch_p, replace=with_replacement)
    idx = np.empty(batch_p * batch_k, dtype=np.int64)
    for j, c in enumerate(chosen):
        pool = members[int(c)]
        take = rng.choice(pool.size, size=batch_k, replace=pool.size < batch_k)
        idx[j * batch_k : (j + 1) * batch_k] = pool[take]
    return idx, with_replacement


def _build_proxies(
    feats: FeatureBank, labels: PseudoLabels, lw: LossWeights
) -> Optional[List[Tuple[int, CameraProxySet]]]:
    """Stage-start proxies; None when the camera term is inactive.

    Returns (space index, proxy set) pairs: just the global space by
    default, every space when ``cam_per_space`` is set.
    """
    if lw.lambda_cam == 0 or feats.camera_ids is None or labels.k_clusters == 0:
        return None
    spaces = feats.spaces()
    wanted = range(len(spaces)) if lw.cam_per_space else [0]
    return [
        (s, build_camera_proxies(spaces[s][1], labels, feats.camera_ids)) for s in wanted
    ]


def training_stage(
    model: ToyModel,
    bank_raw: FeatureBank,
    feats: FeatureBank,
    heads: List[ClassifierHead],
    labels: PseudoLabels,
    agreements: CrossAgreement,
    cfg: PipelineConfig,
    epoch: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> TrainingTrace:
    """One epoch of PK-sampled gradient steps; mutates ``model`` in place.

    ``feats`` is the bank projected through ``model`` at stage start and
    ``heads`` are ``init_heads(feats, labels)``: the model takes them over
    (K changed) and updates them in place. The camera proxies are frozen
    from ``feats``, and every iteration re-projects its batch through the
    current projection so the losses see evolving features.
    """
    if rng is None:
        rng = _epoch_rng(cfg.seed, 1 + epoch)
    trace = TrainingTrace()
    if labels.k_clusters == 0:
        trace.skipped_stage = True
        return trace

    model.heads = heads
    proxies = _build_proxies(feats, labels, cfg.loss_weights)
    members = labels.cluster_members()

    for _ in range(cfg.iters_per_epoch):
        batch, replaced = _pk_sample(rng, members, cfg.batch_p, cfg.batch_k)
        trace.replacement_batches += int(replaced)
        losses, tri_skipped, cam_skipped = _train_step(
            model, bank_raw, batch, labels, agreements, cfg, epoch, proxies
        )
        trace.triplet_skipped += tri_skipped
        trace.cam_skipped += cam_skipped
        trace.iterations.append(losses)
    return trace


def _train_step(
    model: ToyModel,
    bank_raw: FeatureBank,
    batch: np.ndarray,
    labels: PseudoLabels,
    agreements: CrossAgreement,
    cfg: PipelineConfig,
    epoch: int,
    proxies: Optional[List[Tuple[int, CameraProxySet]]],
) -> Tuple[Dict[str, float], int, int]:
    """One gradient step on ``batch``: (its named losses, skipped triplet
    anchors, skipped camera samples)."""
    lw = cfg.loss_weights
    ref = cfg.refinement
    k = labels.k_clusters
    n_parts = bank_raw.n_parts
    b = batch.size
    lab = labels.labels[batch]
    ca = agreements.scores[batch]

    # Forward: shared projection, per-space normalization, head softmax.
    raw, fs, norms = _project_spaces(bank_raw, model.projection, batch)
    logqs = [log_softmax(head.logits(f)) for head, f in zip(model.heads, fs)]
    qs = [np.exp(lq) for lq in logqs]

    # Targets (constants: nothing backpropagates through them).
    if cfg.mode == MODE_PPLR:
        alphas = effective_alpha(ca, epoch, ref)
        t_global = pglr_targets(lab, k, np.stack(qs[1:]), ca, ref.beta)
    else:
        alphas = np.ones_like(ca)
        t_global = aals_targets(lab, k, np.ones(b))
    t_parts = [aals_targets(lab, k, alphas[:, n]) for n in range(n_parts)]

    # Scalar components. The part term uses the smoothing decomposition
    # directly so that alpha = 1 reduces bit-exactly to hard cross-entropy.
    rows = np.arange(b)
    loss_global = float(-(t_global * logqs[0]).sum(axis=1).mean())
    loss_parts = 0.0
    for n in range(n_parts):
        lq = logqs[1 + n]
        hard = -lq[rows, lab]
        kl_uniform = -np.log(k) - lq.mean(axis=1)
        loss_parts += float(
            (alphas[:, n] * hard + (1.0 - alphas[:, n]) * kl_uniform).mean()
        )
    loss_parts /= n_parts

    # Per space, the feature gradients of the triplet and camera terms.
    loss_tri, grad_tri, tri_skipped = softmax_triplet_loss(fs[0], lab)
    feat_grads: List[List[np.ndarray]] = [[grad_tri]] + [[] for _ in range(n_parts)]

    loss_cam = 0.0
    cam_skipped = 0
    if proxies is not None:
        cams = bank_raw.camera_ids[batch]
        for space_idx, proxy_set in proxies:
            l_s, g_s, sk = inter_camera_loss_batch(fs[space_idx], lab, cams, proxy_set, lw)
            loss_cam += l_s / len(proxies)
            feat_grads[space_idx].append(lw.lambda_cam * (g_s / len(proxies)))
            cam_skipped += sk

    # Backward. d loss / d logits is (q - target) scaled by the batch mean.
    scales = [b] + [b * n_parts] * n_parts
    d_proj = np.zeros_like(model.projection)
    for s, (target, scale) in enumerate(zip([t_global, *t_parts], scales)):
        dz = (qs[s] - target) / scale
        df = dz @ model.heads[s].weight
        for grad in feat_grads[s]:
            df = df + grad
        model.heads[s].weight -= cfg.learning_rate * (dz.T @ fs[s])
        dv = (df - (df * fs[s]).sum(axis=1, keepdims=True) * fs[s]) / norms[s][:, None]
        d_proj += raw[s].T @ dv
    model.projection -= cfg.learning_rate * d_proj

    key_global, key_parts = ("pglr", "aals") if cfg.mode == MODE_PPLR else ("gce", "pce")
    losses = {
        "total": loss_global + loss_parts + loss_tri + lw.lambda_cam * loss_cam,
        key_global: loss_global,
        key_parts: loss_parts,
        "triplet": loss_tri,
        "cam": loss_cam,
    }
    return losses, tri_skipped, cam_skipped


def clustered_part_predictions(
    feats: FeatureBank, heads: List[ClassifierHead], labels: PseudoLabels
) -> Tuple[np.ndarray, np.ndarray]:
    """The clustered rows and the part heads' predictions on them, an
    (n_parts, rows, K) stack: the part ensemble of the PGLR targets."""
    clustered = np.flatnonzero(labels.labels >= 0)
    preds = np.stack(
        [heads[1 + n].predict(feats.part_feats[n][clustered]) for n in range(feats.n_parts)]
    )
    return clustered, preds


def run(
    cfg: PipelineConfig,
    bank_raw: FeatureBank,
    report_path=None,
    model_path=None,
    config_echo: Optional[dict] = None,
) -> Tuple[List[EpochReport], ToyModel]:
    """Alternate clustering and training for ``cfg.epochs`` epochs.

    Returns the per-epoch reports and the final model; optionally persists
    the reports as JSON-lines (first line echoes the fully-resolved
    config) and the model as a binary blob. The model is saved first, so a
    model that cannot be saved leaves neither file.
    """
    model = initial_model(cfg, bank_raw)
    has_gt = bank_raw.gt_ids is not None
    reports: List[EpochReport] = []
    for epoch in range(cfg.epochs):
        feats = project_bank(model, bank_raw)
        clust = clustering_stage(feats, cfg)
        labels, agreement = clust.labels, clust.agreement

        heads = init_heads(feats, labels)

        raw_quality = refined_quality = retrieval = None
        no_valid_query = False
        if has_gt:
            raw_quality = label_quality(labels.labels, bank_raw.gt_ids)
            if labels.k_clusters > 0:
                # The argmax of the PGLR targets; outliers stay -1.
                clustered, preds = clustered_part_predictions(feats, heads, labels)
                targets = pglr_targets(
                    labels.labels[clustered],
                    labels.k_clusters,
                    preds,
                    agreement.scores[clustered],
                    cfg.refinement.beta,
                )
                refined = np.full(labels.n_samples, -1, dtype=np.int64)
                refined[clustered] = np.argmax(targets, axis=1)
                refined_quality = label_quality(refined, bank_raw.gt_ids)
            if bank_raw.camera_ids is not None:
                try:
                    retrieval = map_cmc(
                        feats.global_feats,
                        feats.global_feats,
                        bank_raw.gt_ids,
                        bank_raw.gt_ids,
                        bank_raw.camera_ids,
                        bank_raw.camera_ids,
                    )
                except NoValidQueryError:
                    no_valid_query = True

        trace = training_stage(
            model, bank_raw, feats, heads, labels, agreement, cfg, epoch=epoch
        )
        warnings = trace.warnings_dict()
        if no_valid_query:
            warnings["no_valid_query"] = 1
        reports.append(
            EpochReport(
                epoch=epoch,
                k_clusters=labels.k_clusters,
                n_outliers=labels.n_outliers,
                mean_agreement=tuple(float(v) for v in agreement.mean_per_part()),
                losses=tuple(trace.iterations),
                warnings=warnings,
                raw_quality=raw_quality,
                refined_quality=refined_quality,
                retrieval=retrieval,
            )
        )

    if model_path is not None:
        save_model(model, model_path)
    if report_path is not None:
        write_reports(reports, report_path, cfg, config_echo)
    return reports, model


def write_reports(
    reports: Sequence[EpochReport],
    path,
    cfg: PipelineConfig,
    config_echo: Optional[dict] = None,
) -> None:
    """JSON-lines report file: a config echo line, then one epoch per line."""
    echo = config_echo if config_echo is not None else asdict(cfg)
    records = [{"config": echo}, *(r.to_json_dict() for r in reports)]
    write_lines((json.dumps(r, sort_keys=True) + "\n" for r in records), path)


def write_lines(lines: Iterable[str], out_path) -> None:
    """Stream newline-terminated ``lines`` to ``out_path``, or to stdout:
    the one writer of every JSON-lines output."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def save_model(model: ToyModel, path) -> None:
    """Binary blob: header then f32 matrices in declaration order. A value
    that does not fit f32 is a NumericalError, and nothing is written."""
    d_raw, d = model.projection.shape
    n_heads = len(model.heads)
    k = model.heads[0].k_classes if n_heads else 0
    if any(head.k_classes != k for head in model.heads):
        raise ValueError("all heads must share K for serialization")
    mats = [model.projection] + [head.weight for head in model.heads]
    with np.errstate(over="ignore"):
        blobs = [np.ascontiguousarray(m, dtype="<f4") for m in mats]
    if not all(np.isfinite(blob).all() for blob in blobs):
        raise NumericalError("model values do not fit float32: training diverged")
    header = _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, d_raw, d, n_heads, k)
    Path(path).write_bytes(header + b"".join(blob.tobytes() for blob in blobs))


def load_model(path) -> ToyModel:
    data = Path(path).read_bytes()
    if len(data) < _MODEL_HEADER.size:
        raise DataFormatError(f"truncated header: {len(data)} bytes")
    magic, version, d_raw, d, n_heads, k = _MODEL_HEADER.unpack_from(data)
    if magic != MODEL_MAGIC:
        raise DataFormatError(f"bad magic {magic!r}")
    if version != MODEL_VERSION:
        raise DataFormatError(f"unsupported version {version}")
    expected = _MODEL_HEADER.size + (d_raw * d + n_heads * k * d) * 4
    if len(data) != expected:
        raise DataFormatError(
            f"model blob has {len(data)} bytes, expected {expected}"
        )
    offset = _MODEL_HEADER.size
    proj = np.frombuffer(data, "<f4", d_raw * d, offset).reshape(d_raw, d).astype(np.float64)
    offset += d_raw * d * 4
    heads = []
    for _ in range(n_heads):
        w = np.frombuffer(data, "<f4", k * d, offset).reshape(k, d).astype(np.float64)
        offset += k * d * 4
        heads.append(ClassifierHead(weight=w))
    return ToyModel(projection=proj, heads=heads)
