"""Correctness checks computed apart from pplr.

Every function here works from raw arrays or parsed command output with its
own code (bank parsing, distances, ranking, retrieval scoring, contingency
counts) and returns a list of failure messages; an empty list means the
check passed. The benchmark reports ``correct: false`` if any check fails.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

RETRIEVAL_TOL = 1e-9
QUALITY_TOL = 1e-12
ROW_SUM_TOL = 1e-9
AALS_TOL = 1e-12
# The occluded part's mean agreement must lie within this factor of the
# chance level k / (2 (N - 1)), and be this factor below every intact part.
OCCLUDED_FACTOR = 3.0


def read_bank(path) -> dict:
    """Parse a ``.pplb`` file: header, f32 matrices, u16 cameras, u32 ids."""
    data = Path(path).read_bytes()
    magic, version, n, dim, n_parts, flags = struct.unpack_from("<4sIIIHH", data)
    if magic != b"PPLB" or version != 1:
        raise ValueError(f"{path}: not a version-1 feature bank")
    offset = struct.calcsize("<4sIIIHH")
    mats = []
    for _ in range(1 + n_parts):
        mats.append(np.frombuffer(data, "<f4", n * dim, offset).reshape(n, dim))
        offset += n * dim * 4
    cams = gts = None
    if flags & 1:
        cams = np.frombuffer(data, "<u2", n, offset).astype(np.int64)
        offset += n * 2
    if flags & 2:
        gts = np.frombuffer(data, "<u4", n, offset).astype(np.int64)
    return {"global": mats[0], "parts": mats[1:], "cams": cams, "gts": gts}


def unit_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt((x * x).sum(axis=1))[:, None]


def topk_lists(x: np.ndarray, k: int) -> np.ndarray:
    """k nearest rows per row by squared distance, self excluded, ties to
    the smaller index."""
    x = np.asarray(x, dtype=np.float64)
    sq = (x * x).sum(axis=1)
    d = sq[:, None] - 2.0 * (x @ x.T) + sq[None, :]
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1, kind="stable")[:, :k]


def retrieval(feats: np.ndarray, ids: np.ndarray, cams: np.ndarray, ranks=(1, 5, 10)):
    """Cross-camera mAP and CMC with every sample as query and gallery.

    Per query: rank the gallery by distance (ties to the smaller index),
    drop same-identity same-camera entries, score AP over what remains.
    """
    feats = np.asarray(feats, dtype=np.float64)
    aps, first_hits = [], []
    for i in range(feats.shape[0]):
        diff = feats - feats[i]
        order = np.argsort((diff * diff).sum(axis=1), kind="stable")
        same_id = ids[order] == ids[i]
        relevant = same_id[~(same_id & (cams[order] == cams[i]))]
        hits = np.flatnonzero(relevant)
        if hits.size == 0:
            continue
        aps.append(np.mean(np.arange(1, hits.size + 1) / (hits + 1)))
        first_hits.append(hits[0])
    first_hits = np.asarray(first_hits)
    cmc = {r: float(np.mean(first_hits < r)) for r in ranks}
    return float(np.mean(aps)), cmc


def label_scores(labels: np.ndarray, gt: np.ndarray):
    """(accuracy, pairwise F) from the cluster-by-identity contingency table.

    Outliers (-1) are never correct and never share a cluster; the
    same-identity pair count runs over all samples.
    """
    labels, gt = np.asarray(labels), np.asarray(gt)
    clustered = labels >= 0
    table = {}
    for b, g in zip(labels[clustered].tolist(), gt[clustered].tolist()):
        table[(b, g)] = table.get((b, g), 0) + 1
    per_cluster, best = {}, {}
    for (b, _), count in table.items():
        per_cluster[b] = per_cluster.get(b, 0) + count
        best[b] = max(best.get(b, 0), count)
    accuracy = sum(best.values()) / labels.size
    tp = sum(c * (c - 1) // 2 for c in table.values())
    predicted = sum(c * (c - 1) // 2 for c in per_cluster.values())
    _, id_counts = np.unique(gt, return_counts=True)
    actual = sum(int(c) * (int(c) - 1) // 2 for c in id_counts)
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return accuracy, f


def check_canonical_labels(labels) -> list:
    """Ids are 0..K-1, all present, numbered by first appearance."""
    labels = np.asarray(labels)
    clustered = labels[labels >= 0]
    if np.any(labels < -1):
        return ["labels below -1"]
    if clustered.size == 0:
        return []
    ids, first = np.unique(clustered, return_index=True)
    problems = []
    if not np.array_equal(ids, np.arange(ids.size)):
        problems.append(f"cluster ids are not 0..K-1: {ids[:10].tolist()}...")
    elif np.any(np.diff(first) <= 0):
        problems.append("cluster ids are not numbered by first appearance")
    return problems


def check_score_form(scores, k: int) -> list:
    """Every agreement score is i / (2k - i) for an integer 0 <= i <= k."""
    allowed = np.array([i / (2 * k - i) for i in range(k + 1)])
    scores = np.asarray(scores, dtype=np.float64).ravel()
    bad = ~np.isin(scores, allowed)
    if bad.any():
        return [f"{int(bad.sum())} agreement scores are not of the form i/(2k-i), e.g. {scores[bad][0]!r}"]
    return []


def check_agreement(scores, global_feats, part_feats, k: int) -> list:
    """Scores equal |A & B| / (2k - |A & B|) over independently built top-k lists."""
    scores = np.asarray(scores, dtype=np.float64)
    g = topk_lists(unit_rows(global_feats), k)
    problems = []
    for p, feats in enumerate(part_feats):
        lists = topk_lists(unit_rows(feats), k)
        inter = np.array([len(set(a.tolist()) & set(b.tolist())) for a, b in zip(g, lists)])
        expected = inter / (2 * k - inter)
        mismatch = np.flatnonzero(scores[:, p] != expected)
        if mismatch.size:
            i = int(mismatch[0])
            problems.append(
                f"part {p}: {mismatch.size} scores differ from the top-{k} intersection, "
                f"first at row {i}: {scores[i, p]!r} != {expected[i]!r}"
            )
    return problems


def check_occluded_part(scores, part: int, k: int) -> list:
    """A fully occluded part agrees at about chance level, far below the rest."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    chance = k / (2 * (n - 1))
    means = scores.mean(axis=0)
    occluded = means[part]
    intact = np.delete(means, part)
    problems = []
    if not chance / OCCLUDED_FACTOR <= occluded <= chance * OCCLUDED_FACTOR:
        problems.append(f"occluded part {part} mean agreement {occluded:.4g} vs chance {chance:.4g}")
    if intact.size and occluded * OCCLUDED_FACTOR >= intact.min():
        problems.append(f"occluded part {part} mean agreement {occluded:.4g} not far below {intact.min():.4g}")
    return problems


def check_refine(records, labels, scores, beta: float) -> list:
    """Rows sum to 1; AALS rows are alpha * onehot + (1 - alpha) / K with
    alpha the agreement score; at beta >= 0.5 the PGLR argmax is the label."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if len(records) != labels.size:
        return [f"refine has {len(records)} rows for {labels.size} samples"]
    problems = []
    if any(r["index"] != i for i, r in enumerate(records)):
        problems.append("refine rows are out of index order")
    unlabeled = [i for i, r in enumerate(records) if (r["pglr"] is None) != (labels[i] < 0)]
    if unlabeled:
        problems.append(f"refine rows {unlabeled[:5]} disagree with the outlier mask")
        return problems
    clustered = np.flatnonzero(labels >= 0)
    if clustered.size == 0:
        return problems
    k = int(labels.max()) + 1
    pglr = np.array([records[i]["pglr"] for i in clustered], dtype=np.float64)
    aals = np.array([records[i]["aals"] for i in clustered], dtype=np.float64)
    lab = labels[clustered]
    rows = np.arange(clustered.size)
    if pglr.shape != (clustered.size, k) or aals.shape != (clustered.size, scores.shape[1], k):
        return problems + [f"refine rows have shapes {pglr.shape} and {aals.shape}, K={k}"]
    for name, values in (("pglr", pglr), ("aals", aals)):
        worst = np.abs(values.sum(axis=-1) - 1.0).max()
        if worst > ROW_SUM_TOL:
            problems.append(f"{name} rows sum to 1 only within {worst:.3g}")
    alpha = scores[clustered]
    expected = np.repeat(((1.0 - alpha) / k)[:, :, None], k, axis=2)
    expected[rows, :, lab] += alpha
    worst = np.abs(aals - expected).max()
    if worst > AALS_TOL:
        problems.append(f"aals rows differ from alpha*onehot + (1-alpha)/K by {worst:.3g}")
    if beta >= 0.5:
        wrong = np.flatnonzero(np.argmax(pglr, axis=1) != lab)
        if wrong.size:
            problems.append(f"{wrong.size} pglr rows have an argmax other than the label")
    return problems


def check_retrieval(reported_map, reported_cmc: dict, feats, ids, cams) -> list:
    own_map, own_cmc = retrieval(feats, ids, cams, tuple(sorted(reported_cmc)))
    problems = []
    if abs(own_map - reported_map) > RETRIEVAL_TOL:
        problems.append(f"mAP {reported_map!r} != own {own_map!r}")
    for r, value in reported_cmc.items():
        if abs(own_cmc[r] - value) > RETRIEVAL_TOL:
            problems.append(f"CMC@{r} {value!r} != own {own_cmc[r]!r}")
    return problems


def check_label_quality(reported_accuracy, reported_f, labels, gt) -> list:
    accuracy, f = label_scores(labels, gt)
    problems = []
    if abs(accuracy - reported_accuracy) > QUALITY_TOL:
        problems.append(f"label accuracy {reported_accuracy!r} != own {accuracy!r}")
    if abs(f - reported_f) > QUALITY_TOL:
        problems.append(f"pairwise F {reported_f!r} != own {f!r}")
    return problems


def check_improves(final_map: float, untrained_map: float) -> list:
    if final_map > untrained_map:
        return []
    return [f"final mAP {final_map:.4f} is not above the untrained mAP {untrained_map:.4f}"]


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_identical(name: str, digests) -> list:
    if len(set(digests)) <= 1:
        return []
    return [f"{name} bytes differ across the runs of one invocation"]
