"""Independent reference implementations used as test oracles.

Everything here is written straight from the definitions with plain
Python loops and sets, deliberately avoiding the vectorized code paths in
the package so that agreement between the two is meaningful.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np


def pairwise_sq_oracle(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(np.sum((x[i] - x[j]) ** 2))
    return out


def cross_agreement_oracle(lists_a: np.ndarray, lists_b: np.ndarray) -> np.ndarray:
    scores = []
    for row_a, row_b in zip(lists_a, lists_b):
        sa, sb = set(row_a.tolist()), set(row_b.tolist())
        scores.append(len(sa & sb) / len(sa | sb))
    return np.array(scores)


def dbscan_oracle(
    dist: np.ndarray, eps: float, min_samples: int
) -> Tuple[np.ndarray, int]:
    """Brute-force DBSCAN: union-find over every core-core pair, border
    points claimed by their lowest-indexed core neighbor, labels renumbered
    by first appearance."""
    d = np.asarray(dist, dtype=np.float64)
    n = d.shape[0]
    near = [[j for j in range(n) if j != i and d[i, j] <= eps] for i in range(n)]
    core = [len(near[i]) >= min_samples for i in range(n)]

    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        if not core[i]:
            continue
        for j in near[i]:
            if core[j] and j > i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    raw = [-1] * n
    for i in range(n):
        if core[i]:
            raw[i] = find(i)
        else:
            claimants = [j for j in near[i] if core[j]]
            if claimants:
                raw[i] = find(min(claimants))

    remap: Dict[int, int] = {}
    labels = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        if raw[i] == -1:
            continue
        if raw[i] not in remap:
            remap[raw[i]] = len(remap)
        labels[i] = remap[raw[i]]
    return labels, len(remap)


def k_reciprocal_oracle(
    features: np.ndarray, k1: int, k2: int, blend_lambda: float
) -> np.ndarray:
    """Definition-level k-reciprocal Jaccard distance with explicit sets."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    d = pairwise_sq_oracle(x)
    dmax = d.max()
    dn = d / dmax if dmax > 0 else d
    ranking = [sorted(range(n), key=lambda j, i=i: (dn[i, j], j)) for i in range(n)]

    def top(i: int, depth: int) -> set:
        return set(ranking[i][: depth + 1])

    def reciprocal(i: int, depth: int) -> set:
        return {j for j in top(i, depth) if i in top(j, depth)}

    half = int(round(k1 / 2))
    v = np.zeros((n, n))
    for i in range(n):
        base = reciprocal(i, k1)
        expanded = set(base)
        for q in sorted(base):
            cand = reciprocal(q, half)
            if 3 * len(cand & base) >= 2 * len(cand):
                expanded |= cand
        idx = sorted(expanded)
        weights = np.array([np.exp(-dn[i, j]) for j in idx])
        v[i, idx] = weights / weights.sum()

    if k2 > 1:
        expanded_v = np.zeros_like(v)
        for i in range(n):
            neighbors = ranking[i][:k2]
            expanded_v[i] = sum(v[j] for j in neighbors) / k2
        v = expanded_v

    jaccard = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            mins = float(np.minimum(v[i], v[j]).sum())
            maxs = float(np.maximum(v[i], v[j]).sum())
            jaccard[i, j] = 1.0 - mins / maxs

    final = (1.0 - blend_lambda) * jaccard + blend_lambda * dn
    final = (final + final.T) / 2.0
    np.fill_diagonal(final, 0.0)
    return np.clip(final, 0.0, 1.0)


def k_reciprocal_loop_oracle(
    features: np.ndarray, k1: int, k2: int, blend_lambda: float
) -> np.ndarray:
    """The loop form of ``k_reciprocal_jaccard``: full stable row sorts, a
    per-row loop over expansion candidates, the query-expansion mean over a
    3-D gather, and sums of minima accumulated per (row, column) of V.

    Every floating-point operation is the one the package performs, in the
    same order, so the two must agree bit for bit (``np.array_equal``)."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    sq = np.einsum("ij,ij->i", x, x)
    dist = sq[:, None] + sq[None, :] - 2.0 * slab_gram_oracle(x)
    np.maximum(dist, 0.0, out=dist)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    dmax = dist.max()
    norm_dist = dist / dmax if dmax > 0 else dist.copy()
    rank = np.argsort(norm_dist, axis=1, kind="stable")

    def reciprocal(depth: int) -> np.ndarray:
        member = np.zeros((n, n), dtype=bool)
        for i in range(n):
            member[i, rank[i, :depth]] = True
        return member & member.T

    recip = reciprocal(k1 + 1)
    recip_half = reciprocal(int(round(k1 / 2)) + 1)
    v = np.zeros((n, n))
    for i in range(n):
        expanded = recip[i].copy()
        for q in np.flatnonzero(recip[i]):
            candidate = recip_half[q]
            overlap = np.count_nonzero(candidate & recip[i])
            if 3 * overlap >= 2 * np.count_nonzero(candidate):
                expanded |= candidate
        idx = np.flatnonzero(expanded)
        weights = np.exp(-norm_dist[i, idx])
        v[i, idx] = weights / weights.sum()

    if k2 > 1:
        v = np.mean(v[rank[:, :k2]], axis=1)

    row_sums = v.sum(axis=1)
    cols_per_row = [np.flatnonzero(v[i]) for i in range(n)]
    rows_per_col = [np.flatnonzero(v[:, m]) for m in range(n)]
    min_sums = np.zeros((n, n))
    for i in range(n):
        for m in cols_per_row[i]:
            rows = rows_per_col[m]
            min_sums[i, rows] += np.minimum(v[i, m], v[rows, m])
    max_sums = row_sums[:, None] + row_sums[None, :] - min_sums
    jaccard = 1.0 - min_sums / max_sums

    final = (1.0 - blend_lambda) * jaccard + blend_lambda * norm_dist
    final = 0.5 * (final + final.T)
    np.clip(final, 0.0, 1.0, out=final)
    np.fill_diagonal(final, 0.0)
    return final


def encoding_weights_loop_oracle(dist: np.ndarray, ptr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The per-row form of the encoding weights of ``k_reciprocal_jaccard``:
    ``exp(-d)`` over each row's expanded set (row pointers ``ptr``, column
    indices ``cols``), each row divided by the 1-D sum of its own weights."""
    rows = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    vals = np.exp(-dist[rows, cols])
    for i in range(ptr.size - 1):
        weights = vals[ptr[i] : ptr[i + 1]]
        weights /= weights.sum()
    return vals


def average_precision_oracle(relevance: Sequence[bool]) -> float:
    hits = 0
    total = 0.0
    for position, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / position
    if hits == 0:
        raise ValueError("no relevant item")
    return total / hits


def map_cmc_oracle(
    query_feats: np.ndarray,
    gallery_feats: np.ndarray,
    query_ids: np.ndarray,
    gallery_ids: np.ndarray,
    query_cams: np.ndarray,
    gallery_cams: np.ndarray,
    ranks: Sequence[int],
) -> Tuple[float, Dict[int, float], int]:
    aps: List[float] = []
    cmc_hits = {r: 0 for r in ranks}
    excluded = 0
    for i in range(len(query_feats)):
        dists = [
            float(np.sum((query_feats[i] - gallery_feats[j]) ** 2))
            for j in range(len(gallery_feats))
        ]
        order = sorted(range(len(gallery_feats)), key=lambda j: (dists[j], j))
        kept = [
            j
            for j in order
            if not (gallery_ids[j] == query_ids[i] and gallery_cams[j] == query_cams[i])
        ]
        relevance = [bool(gallery_ids[j] == query_ids[i]) for j in kept]
        if not any(relevance):
            excluded += 1
            continue
        aps.append(average_precision_oracle(relevance))
        first = relevance.index(True)
        for r in ranks:
            if first < r:
                cmc_hits[r] += 1
    if not aps:
        raise ValueError("no valid query")
    return (
        float(np.mean(aps)),
        {r: cmc_hits[r] / len(aps) for r in ranks},
        excluded,
    )


def label_quality_oracle(labels, gt_ids) -> Tuple[float, float, float]:
    """(accuracy, pairwise F, outlier fraction) of a hard labeling: the
    majority count per cluster by a count of each member identity, and the
    pair counts by a loop over every pair of samples."""
    labels = [int(v) for v in labels]
    gt = [int(v) for v in gt_ids]
    n = len(labels)
    members: Dict[int, List[int]] = {}
    for label, identity in zip(labels, gt):
        if label >= 0:
            members.setdefault(label, []).append(identity)
    correct = sum(max(ids.count(i) for i in ids) for ids in members.values())
    tp = pred_pairs = gt_pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_cluster = labels[i] >= 0 and labels[i] == labels[j]
            same_id = gt[i] == gt[j]
            pred_pairs += same_cluster
            gt_pairs += same_id
            tp += same_cluster and same_id
    precision = tp / pred_pairs if pred_pairs else 0.0
    recall = tp / gt_pairs if gt_pairs else 0.0
    f_score = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return correct / n, f_score, sum(label < 0 for label in labels) / n


def slab_gram_oracle(x: np.ndarray) -> np.ndarray:
    """``x @ x.T`` as ``pairwise_sq_euclidean`` takes it: the rows padded
    with zero rows to a multiple of 32, and each 32-row slab of them, held
    in column-major order, times the padded rows' transpose."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    padded = np.zeros((-(-n // 32) * 32, x.shape[1]))
    padded[:n] = x
    slabs = [np.asfortranarray(padded[s : s + 32]) @ padded.T for s in range(0, n, 32)]
    return np.vstack(slabs)[:n, :n] if slabs else np.zeros((0, 0))


def sq_euclidean_dense_oracle(x: np.ndarray) -> np.ndarray:
    """The dense one-shot form of ``pairwise_sq_euclidean`` over the slab
    Gram matrix, with the ``(D + D^T) / 2`` symmetrization it used to
    apply; on C-contiguous features the package must match it bit for
    bit."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * slab_gram_oracle(x)
    np.maximum(d, 0.0, out=d)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def map_cmc_dense_oracle(
    query_feats: np.ndarray,
    gallery_feats: np.ndarray,
    query_ids: np.ndarray,
    gallery_ids: np.ndarray,
    query_cams: np.ndarray,
    gallery_cams: np.ndarray,
    ranks: Sequence[int],
) -> Tuple[float, Dict[int, float], int]:
    """The dense form of ``map_cmc``: one query x gallery distance matrix
    and one full stable argsort, then the same per-query scoring, so the
    blocked package form must give the same floats exactly."""
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    dist = (
        np.einsum("ij,ij->i", q, q)[:, None]
        + np.einsum("ij,ij->i", g, g)[None, :]
        - 2.0 * (q @ g.T)
    )
    order = np.argsort(dist, axis=1, kind="stable")
    aps = []
    cmc_hits = {r: 0 for r in ranks}
    excluded = 0
    for i in range(q.shape[0]):
        ranked = order[i]
        keep = ~((gallery_ids[ranked] == query_ids[i]) & (gallery_cams[ranked] == query_cams[i]))
        relevance = (gallery_ids[ranked] == query_ids[i])[keep]
        if not relevance.any():
            excluded += 1
            continue
        # The precisions at the positives, summed as one 1-D array.
        hits = np.flatnonzero(relevance)
        aps.append(float(((np.arange(hits.size) + 1) / (hits + 1)).sum() / hits.size))
        first_hit = int(hits[0])
        for r in ranks:
            if first_hit < r:
                cmc_hits[r] += 1
    return (
        float(np.mean(aps)),
        {r: cmc_hits[r] / len(aps) for r in ranks},
        excluded,
    )


def fd_gradient(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        up = fn(x)
        flat[idx] = orig - step
        down = fn(x)
        flat[idx] = orig
        grad_flat[idx] = (up - down) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def inter_camera_loss_oracle(feature, own_label, own_cam, proxies, weights):
    """One sample's camera-proxy loss: (loss, gradient, skipped flag).

    Positives share the sample's cluster under another camera; negatives
    are the ``n_hard_negatives`` most similar other-cluster proxies, ties
    to the smaller proxy index. No positive (or an outlier) skips.
    """
    f = np.asarray(feature, dtype=np.float64)
    pos_idx = [
        m
        for m in range(proxies.n_proxies)
        if proxies.proxy_cluster[m] == own_label and proxies.proxy_camera[m] != own_cam
    ]
    if own_label < 0 or not pos_idx:
        return 0.0, np.zeros_like(f), True
    sims = proxies.proxies @ f
    neg_pool = [m for m in range(proxies.n_proxies) if proxies.proxy_cluster[m] != own_label]
    neg_idx = sorted(neg_pool, key=lambda m: (-sims[m], m))[: weights.n_hard_negatives]
    support = pos_idx + neg_idx
    logits = sims[support] / weights.tau
    log_probs = logits - _logsumexp(logits)
    loss = float(-log_probs[: len(pos_idx)].mean())
    probs = np.exp(log_probs)
    pos_mean = proxies.proxies[pos_idx].mean(axis=0)
    grad = (probs @ proxies.proxies[support] - pos_mean) / weights.tau
    return loss, grad, False


def inter_camera_loss_batch_oracle(features, labels, cams, proxies, weights):
    """Per-sample loop over :func:`inter_camera_loss_oracle`; the batch
    loss is the sum over samples / B and skipped samples contribute 0."""
    f = np.asarray(features, dtype=np.float64)
    b = f.shape[0]
    grads = np.zeros_like(f)
    total = 0.0
    skipped = 0
    for i in range(b):
        loss_i, grad_i, was_skipped = inter_camera_loss_oracle(
            f[i], int(labels[i]), int(cams[i]), proxies, weights
        )
        if was_skipped:
            skipped += 1
            continue
        total += loss_i
        grads[i] = grad_i / b
    return total / b, grads, skipped


def softmax_triplet_oracle(feats, labels):
    """Hard-mined softmax-triplet loss with a per-anchor loop:
    (mean loss over valid anchors, gradient, skipped anchors)."""
    f = np.asarray(feats, dtype=np.float64)
    b = f.shape[0]
    dist = np.sqrt(pairwise_sq_oracle(f))
    grad = np.zeros_like(f)
    mined = []
    skipped = 0
    for i in range(b):
        pos = [j for j in range(b) if j != i and labels[j] == labels[i]]
        neg = [j for j in range(b) if labels[j] != labels[i]]
        if not pos or not neg:
            skipped += 1
            continue
        p = max(pos, key=lambda j: (dist[i, j], -j))
        n = min(neg, key=lambda j: (dist[i, j], j))
        mined.append((i, p, n))
    if not mined:
        return 0.0, grad, skipped
    total = 0.0
    for i, p, n in mined:
        d_p, d_n = dist[i, p], dist[i, n]
        total += -math.log(math.exp(d_n) / (math.exp(d_p) + math.exp(d_n)))
        s = 1.0 / (1.0 + math.exp(d_n - d_p)) / len(mined)
        u_pos = (f[i] - f[p]) / dist[i, p] if dist[i, p] > 0 else np.zeros_like(f[i])
        u_neg = (f[i] - f[n]) / dist[i, n] if dist[i, n] > 0 else np.zeros_like(f[i])
        grad[i] += s * (u_pos - u_neg)
        grad[p] -= s * u_pos
        grad[n] += s * u_neg
    return total / len(mined), grad, skipped


def aals_target_oracle(label: int, k: int, alpha: float) -> np.ndarray:
    """alpha * onehot(label) + (1 - alpha) * uniform, entry by entry."""
    return np.array(
        [alpha * (j == label) + (1.0 - alpha) / k for j in range(k)], dtype=np.float64
    )


def pglr_target_oracle(label: int, k: int, part_preds, agreements, beta: float) -> np.ndarray:
    """beta * onehot(label) + (1 - beta) * sum_n w_n * q_n, with w the
    softmax of the sample's part agreements."""
    exps = [math.exp(a) for a in agreements]
    weights = [e / sum(exps) for e in exps]
    return np.array(
        [
            beta * (j == label)
            + (1.0 - beta) * sum(w * float(q[j]) for w, q in zip(weights, part_preds))
            for j in range(k)
        ],
        dtype=np.float64,
    )


def soft_cross_entropy_oracle(target, log_q) -> float:
    """H(target, q) of one sample from its log-probabilities: the global
    head's term in the train step."""
    return -sum(float(t) * float(lq) for t, lq in zip(target, log_q))


def aals_loss_oracle(label: int, alpha: float, log_q) -> float:
    """alpha * H(onehot, q) + (1 - alpha) * KL(u || q) of one sample: a
    part head's term in the train step."""
    k = len(log_q)
    hard = -float(log_q[label])
    kl_uniform = -math.log(k) - sum(float(lq) for lq in log_q) / k
    return alpha * hard + (1.0 - alpha) * kl_uniform


def refine_lines_oracle(n: int, clustered, pglr, aals_by_part) -> str:
    """The ``pplr refine`` output as one string: a record per sample, each
    written by ``json.dumps`` from Python lists, with nulls for a sample in
    no cluster. ``pglr[row]`` and ``aals_by_part[p][row]`` are the targets
    of sample ``clustered[row]``."""
    records = [{"index": i, "pglr": None, "aals": None} for i in range(n)]
    for row, i in enumerate(clustered):
        records[int(i)] = {
            "index": int(i),
            "pglr": pglr[row].tolist(),
            "aals": [part[row].tolist() for part in aals_by_part],
        }
    return "\n".join(json.dumps(r) for r in records) + "\n"


def cluster_members_oracle(labels: np.ndarray, k_clusters: int) -> Tuple[np.ndarray, ...]:
    """Per-cluster member indices, ascending: one scan of all N labels per
    cluster."""
    return tuple(np.flatnonzero(labels == b) for b in range(k_clusters))


def camera_proxies_oracle(features, labels: np.ndarray, camera_ids):
    """(proxies, proxy cameras, proxy clusters): the mean feature of each
    non-empty (cluster, camera) pair, ordered by (cluster, camera), with
    the keys collected sample by sample and every pair's rows found by a
    mask over all N samples. Outliers contribute nothing."""
    x = np.asarray(features, dtype=np.float64)
    cams = np.asarray(camera_ids)
    keys = sorted(
        {(int(labels[i]), int(cams[i])) for i in range(labels.size) if labels[i] >= 0}
    )
    proxies = np.zeros((len(keys), x.shape[1]), dtype=np.float64)
    for m, (b, a) in enumerate(keys):
        proxies[m] = x[np.flatnonzero((labels == b) & (cams == a))].mean(axis=0)
    cameras = np.array([a for _, a in keys], dtype=np.int64)
    clusters = np.array([b for b, _ in keys], dtype=np.int64)
    return proxies, cameras, clusters
