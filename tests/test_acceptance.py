"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported (not asserted) experiment magnitudes.

The committed experiment configuration is fixed here, including seeds; the
calibration values quoted in comments come from the committed run of this
suite and are what the reported magnitudes are expected to reproduce.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from oracles import (
    aals_loss_oracle,
    average_precision_oracle,
    cross_agreement_oracle,
    dbscan_oracle,
    fd_gradient,
    k_reciprocal_oracle,
    map_cmc_oracle,
    relative_error,
    soft_cross_entropy_oracle,
)
from pplr.agreement import cross_agreement
from pplr.cli import main
from pplr.cluster import DbscanParams, dbscan
from pplr.core import RankedLists
from pplr.evaluate import map_cmc
from pplr.ingest import SynthConfig, generate_synthetic_bank
from pplr.neighbors import k_reciprocal_jaccard, pairwise_sq_euclidean
from pplr.objectives import (
    CameraProxySet,
    LossWeights,
    inter_camera_loss_batch,
    log_softmax,
    softmax,
    softmax_triplet_loss,
)
from pplr.pipeline import (
    PipelineConfig,
    clustering_stage,
    initial_model,
    project_bank,
    run,
)
from pplr.refine import aals_targets, pglr_targets

# Committed experiment: the synthetic bank and pipeline settings for
# criteria 7 and 8. eps is calibrated to this bank (the clustering radius
# is dataset-dependent); everything else is the library default.
EXPERIMENT_BANK = SynthConfig(
    n_identities=30,
    samples_per_identity=20,
    dim=64,
    n_parts=3,
    n_cameras=4,
    cluster_spread=0.9,
    occlusion_fraction=0.2,
    camera_shift=0.4,
    seed=7,
)
EXPERIMENT_PIPELINE = dict(
    epochs=10,
    iters_per_epoch=50,
    batch_p=16,
    batch_k=4,
    learning_rate=0.5,
    k_agreement=20,
    proj_dim=32,
    seed=6,
    dbscan=DbscanParams(eps=0.5, min_samples=4),
)
# Calibration from the committed run (for reference; magnitudes are
# reported, not asserted): untrained mAP 0.5973, final baseline mAP
# 0.7489, final pplr mAP 0.7916, refined-vs-raw accuracy gap 0.0000 at
# every epoch (beta=0.5 keeps the one-hot argmax), occluded-part mean
# agreement 0.018 versus 0.17-0.18 for the intact parts.


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def committed_runs():
    bank = generate_synthetic_bank(EXPERIMENT_BANK)
    cfg_pplr = PipelineConfig(mode="pplr", **EXPERIMENT_PIPELINE)
    cfg_base = PipelineConfig(mode="baseline", **EXPERIMENT_PIPELINE)
    started = time.perf_counter()
    reports_pplr, _ = run(cfg_pplr, bank)
    reports_base, _ = run(cfg_base, bank)
    elapsed = time.perf_counter() - started
    feats0 = project_bank(initial_model(cfg_pplr, bank), bank)
    untrained = map_cmc(
        feats0.global_feats,
        feats0.global_feats,
        bank.gt_ids,
        bank.gt_ids,
        bank.camera_ids,
        bank.camera_ids,
    ).map
    return {
        "bank": bank,
        "cfg": cfg_pplr,
        "pplr": reports_pplr,
        "baseline": reports_base,
        "untrained_map": untrained,
        "elapsed": elapsed,
    }


def test_criterion_1_cross_agreement_oracle():
    """Eq-level agreement: exact match with a set oracle on 1000 pairs."""
    rng = np.random.default_rng(100)
    n, k = 200, 20
    started = time.perf_counter()
    for _ in range(1000):
        lists = []
        for _ in range(2):
            noise = rng.random((n, n))
            np.fill_diagonal(noise, 2.0)  # self sorts last, never in top-k
            order = np.argsort(noise, axis=1)[:, :k]
            lists.append(RankedLists(lists=order))
        ours = cross_agreement(lists[0], lists[1])
        ref = cross_agreement_oracle(lists[0].lists, lists[1].lists)
        assert np.array_equal(ours, ref)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"1000 randomized pairs exactly match the set oracle in {elapsed:.2f}s")


def test_criterion_2_dbscan_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(300, 501)) if trial < 15 else int(rng.integers(20, 260))
        n_blobs = int(rng.integers(1, 8))
        centres = rng.standard_normal((n_blobs, 3)) * rng.uniform(1.0, 6.0)
        x = centres[rng.integers(0, n_blobs, size=n)] + rng.standard_normal((n, 3)) * rng.uniform(0.1, 0.8)
        dist = pairwise_sq_euclidean(x)
        eps = float(rng.uniform(0.2, 2.5))
        min_samples = int(rng.integers(1, 7))
        got = dbscan(dist, DbscanParams(eps=eps, min_samples=min_samples))
        ref_labels, ref_k = dbscan_oracle(dist.values, eps, min_samples)
        # Canonical renumbering on both sides makes set-of-sets equality
        # equivalent to exact label-vector equality; assert the strong form.
        assert got.k_clusters == ref_k, f"trial {trial}"
        assert np.array_equal(got.labels, ref_labels), f"trial {trial}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(2, f"200 instances (N up to 500) match brute-force DBSCAN in {elapsed:.1f}s")


def test_criterion_3_k_reciprocal_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 101))
        x = rng.standard_normal((n, 5))
        if trial % 3 == 0:  # mix in clustered layouts
            x[: n // 2] *= 0.2
            x[n // 2 :] = x[n // 2 :] * 0.2 + 4.0
        k1 = int(rng.integers(3, 16))
        k2 = int(rng.integers(1, k1 + 1))
        lam = float(rng.choice([0.0, rng.uniform(), 1.0]))
        ours = k_reciprocal_jaccard(x, k1, k2, lam).values
        ref = k_reciprocal_oracle(x, k1, k2, lam)
        worst = max(worst, float(np.abs(ours - ref).max()))
        assert worst < 1e-6, f"trial {trial}: max abs diff {worst:.2e}"
    report(3, f"50 instances match the definition oracle (worst diff {worst:.2e})")


def _fd_check(loss_fn, x, grad, step=1e-5):
    fd = fd_gradient(loss_fn, x, step=step)
    return relative_error(grad, fd)


def _aals_row(label, k, alpha):
    return aals_targets(np.array([label]), k, np.array([alpha]))[0]


def _pglr_row(label, k, preds, agreements, beta):
    batch_preds = np.stack(preds)[:, None, :]
    return pglr_targets(np.array([label]), k, batch_preds, agreements[None, :], beta)[0]


def test_criterion_4_gradient_correctness():
    # The head gradients are the ones the train step applies, softmax(z) - t,
    # with t a target row from the batch builders; each is checked against
    # finite differences of that head's per-sample loss.
    rng = np.random.default_rng(103)
    worst = {}

    errs = []
    for _ in range(100):
        k = int(rng.integers(2, 12))
        target = softmax(rng.standard_normal(k) * 2)
        logits = rng.standard_normal(k) * 2
        grad = softmax(logits) - target
        errs.append(
            _fd_check(lambda z: soft_cross_entropy_oracle(target, log_softmax(z)), logits, grad)
        )
    worst["cross_entropy"] = max(errs)

    errs = []
    for _ in range(100):
        k = int(rng.integers(2, 12))
        label = int(rng.integers(k))
        alpha = float(rng.uniform(0, 1))
        logits = rng.standard_normal(k) * 2
        grad = softmax(logits) - _aals_row(label, k, alpha)
        errs.append(
            _fd_check(lambda z: aals_loss_oracle(label, alpha, log_softmax(z)), logits, grad)
        )
    worst["aals_loss"] = max(errs)

    errs = []
    for _ in range(100):
        k = int(rng.integers(2, 10))
        n_parts = int(rng.integers(1, 5))
        label = int(rng.integers(k))
        preds = [softmax(rng.standard_normal(k)) for _ in range(n_parts)]
        agreements = rng.uniform(0, 1, size=n_parts)
        beta = float(rng.uniform(0, 1))
        target = _pglr_row(label, k, preds, agreements, beta)
        logits = rng.standard_normal(k) * 2
        grad = softmax(logits) - target
        errs.append(
            _fd_check(lambda z: soft_cross_entropy_oracle(target, log_softmax(z)), logits, grad)
        )
    worst["pglr_path"] = max(errs)

    errs = []
    done = 0
    while done < 100:
        feats = rng.standard_normal((8, 4))
        labels = rng.integers(0, 3, size=8)
        loss, grad, _ = softmax_triplet_loss(feats, labels)
        if loss == 0.0:
            continue
        errs.append(_fd_check(lambda f: softmax_triplet_loss(f, labels)[0], feats, grad))
        done += 1
    worst["softmax_triplet_loss"] = max(errs)

    errs = []
    done = 0
    while done < 100:
        m = int(rng.integers(6, 14))
        proxies = CameraProxySet(
            proxies=rng.standard_normal((m, 4)) / 2.0,
            proxy_camera=rng.integers(0, 3, size=m),
            proxy_cluster=rng.integers(0, 4, size=m),
        )
        lw = LossWeights(tau=float(rng.uniform(0.2, 1.0)), n_hard_negatives=int(rng.integers(2, 8)))
        f = rng.standard_normal((4, 4))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        own_labels, own_cams = rng.integers(0, 4, size=4), rng.integers(0, 3, size=4)
        loss, grad, skipped = inter_camera_loss_batch(f, own_labels, own_cams, proxies, lw)
        if skipped == 4:
            continue
        errs.append(
            _fd_check(
                lambda x: inter_camera_loss_batch(x, own_labels, own_cams, proxies, lw)[0],
                f,
                grad,
            )
        )
        done += 1
    worst["inter_camera_loss_batch"] = max(errs)

    for name, err in worst.items():
        assert err <= 1e-4, f"{name}: worst relative error {err:.2e}"
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(4, f"analytic gradients match finite differences ({summary})")


def test_criterion_5_aals_decomposition_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 51))
        label = int(rng.integers(k))
        alpha = float(rng.uniform(0, 1))
        log_q = log_softmax(rng.standard_normal(k) * 3)
        direct = aals_loss_oracle(label, alpha, log_q)
        smoothed = soft_cross_entropy_oracle(_aals_row(label, k, alpha), log_q)
        diff = abs(direct - (smoothed - (1 - alpha) * math.log(k)))
        worst = max(worst, diff)
        assert diff <= 1e-10
    report(5, f"1000 draws satisfy the smoothing decomposition (worst {worst:.1e})")


def test_criterion_6_refinement_limits():
    rng = np.random.default_rng(105)
    for _ in range(100):
        k = int(rng.integers(2, 20))
        label = int(rng.integers(k))
        hard = _aals_row(label, k, 1.0)
        assert hard[label] == 1.0 and np.count_nonzero(hard) == 1
        uniform = _aals_row(label, k, 0.0)
        assert np.all(uniform == 1.0 / k)
        n_parts = int(rng.integers(1, 5))
        preds = [softmax(rng.standard_normal(k)) for _ in range(n_parts)]
        agreements = rng.uniform(0, 1, size=n_parts)
        # At beta = 0 the target is the weighted ensemble of probability
        # vectors, so its total is the sum of the ensemble weights.
        ensemble = _pglr_row(label, k, preds, agreements, 0.0)
        assert abs(float(ensemble.sum()) - 1.0) < 1e-9
        one_hot_target = _pglr_row(label, k, preds, agreements, 1.0)
        assert one_hot_target[label] == 1.0 and np.count_nonzero(one_hot_target) == 1
    report(6, "alpha/beta limits are exact and ensemble weights sum to 1")


def test_criterion_7_noise_reduction_experiment(committed_runs):
    reports = committed_runs["pplr"]
    cfg = committed_runs["cfg"]
    warmup = cfg.refinement.aals_warmup_epochs
    gaps = []
    for r in reports:
        if r.epoch < warmup:
            continue
        raw = r.raw_quality.accuracy
        refined = r.refined_quality.accuracy
        assert refined >= raw, f"epoch {r.epoch}: refined {refined} < raw {raw}"
        gaps.append(refined - raw)
    assert gaps, "no post-warm-up epochs in the committed run"

    occluded_bank = generate_synthetic_bank(
        dataclasses.replace(EXPERIMENT_BANK, occlusion_fraction=(0.2, 0.2, 1.0))
    )
    feats = project_bank(initial_model(cfg, occluded_bank), occluded_bank)
    means = clustering_stage(feats, cfg).agreement.mean_per_part()
    assert means[2] < means[0] and means[2] < means[1], (
        f"occluded part not lowest: {means}"
    )
    report(
        7,
        "refined >= raw accuracy after warm-up "
        f"(mean gap {np.mean(gaps):+.4f}; raw final "
        f"{reports[-1].raw_quality.accuracy:.4f}); fully occluded part mean "
        f"agreement {means[2]:.4f} vs intact {means[0]:.4f}/{means[1]:.4f}",
    )


def test_criterion_8_pipeline_superiority(committed_runs):
    final_pplr = committed_runs["pplr"][-1].retrieval.map
    final_base = committed_runs["baseline"][-1].retrieval.map
    untrained = committed_runs["untrained_map"]
    elapsed = committed_runs["elapsed"]
    assert final_pplr >= final_base, f"pplr {final_pplr} < baseline {final_base}"
    assert final_base >= untrained, f"baseline {final_base} < untrained {untrained}"
    assert elapsed < 600.0, f"runs took {elapsed:.0f}s"
    report(
        8,
        f"final mAP pplr {final_pplr:.4f} >= baseline {final_base:.4f} >= "
        f"untrained {untrained:.4f} (both runs in {elapsed:.0f}s)",
    )


def test_criterion_9_evaluator_oracle():
    assert abs(average_precision_oracle([True, False, True]) - 5 / 6) < 1e-15
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal((30, 6))
        g = rng.standard_normal((100, 6))
        q_ids = rng.integers(0, 9, size=30)
        g_ids = rng.integers(0, 9, size=100)
        q_cams = rng.integers(0, 3, size=30)
        g_cams = rng.integers(0, 3, size=100)
        result = map_cmc(q, g, q_ids, g_ids, q_cams, g_cams)
        ref_map, ref_cmc, ref_excluded = map_cmc_oracle(
            q, g, q_ids, g_ids, q_cams, g_cams, ranks=(1, 5, 10)
        )
        worst = max(worst, abs(result.map - ref_map))
        assert abs(result.map - ref_map) < 1e-10
        for r in (1, 5, 10):
            assert abs(result.cmc[r] - ref_cmc[r]) < 1e-10
        assert result.n_excluded == ref_excluded
    report(9, f"100 retrieval instances match the per-query oracle (worst {worst:.1e})")


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "synth": {
                    "n_identities": 8,
                    "samples_per_identity": 12,
                    "dim": 16,
                    "n_cameras": 3,
                    "cluster_spread": 0.5,
                    "occlusion_fraction": 0.1,
                    "camera_shift": 0.3,
                    "seed": 2,
                },
                "dbscan": {"eps": 0.4},
                "pipeline": {
                    "epochs": 3,
                    "iters_per_epoch": 5,
                    "batch_p": 4,
                    "batch_k": 2,
                    "proj_dim": 8,
                    "k_agreement": 6,
                    "seed": 1,
                },
            }
        )
    )
    bank = tmp_path / "bank.pplb"
    assert main(["simgen", "--config", str(config), "--out", str(bank)]) == 0

    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.jsonl"
        code = main(["pipeline", "--config", str(config), "--bank", str(bank), "--out", str(out)])
        assert code == 0
        outputs.append((out.read_bytes(), (tmp_path / f"report_{tag}.jsonl.model").read_bytes()))
    for reports, model in outputs[1:]:
        assert reports == outputs[0][0]
        assert model == outputs[0][1]
    report(10, "report and model bytes identical across reruns")
