import json
import math

import numpy as np
import pytest

from oracles import aals_loss_oracle, fd_gradient, soft_cross_entropy_oracle
from pplr.cluster import DbscanParams
from pplr.core import CrossAgreement, NumericalError, PseudoLabels
from pplr.ingest import SynthConfig, generate_synthetic_bank
from pplr.objectives import LossWeights
from pplr.pipeline import (
    PipelineConfig,
    ToyModel,
    _pk_sample,
    agreement_scores,
    cluster_labels,
    clustering_stage,
    init_heads,
    initial_model,
    load_model,
    project_bank,
    run,
    save_model,
    training_stage,
    write_reports,
)
from pplr.refine import RefinementConfig


def zero_noise_bank(n_identities=8, samples_per_identity=32, dim=32):
    return generate_synthetic_bank(
        SynthConfig(
            n_identities=n_identities,
            samples_per_identity=samples_per_identity,
            dim=dim,
            cluster_spread=0.0,
            occlusion_fraction=0.0,
            camera_shift=0.0,
            seed=3,
        )
    )


def small_noisy_bank(seed=7):
    return generate_synthetic_bank(
        SynthConfig(
            n_identities=10,
            samples_per_identity=20,
            dim=24,
            n_cameras=3,
            cluster_spread=0.6,
            occlusion_fraction=0.1,
            camera_shift=0.3,
            seed=seed,
        )
    )


class TestClusteringStage:
    def test_zero_noise_recovers_identities(self):
        # Identity blocks larger than the clustering depth keep every
        # reciprocal-neighbor set inside its own identity; ranked lists of
        # length samples_per_identity - 1 are then identical across spaces.
        bank = zero_noise_bank()
        cfg = PipelineConfig(k_agreement=11, seed=0)
        from pplr.core import normalize_bank
        result = clustering_stage(normalize_bank(bank), cfg)
        assert result.labels.k_clusters == 8
        assert result.labels.n_outliers == 0
        assert np.abs(result.agreement.scores - 1.0).max() < 1e-12
        # The pseudo-label partition matches ground truth exactly.
        for ident in range(8):
            block = result.labels.labels[bank.gt_ids == ident]
            assert np.all(block == block[0])

    def test_requires_normalized_bank(self):
        bank = zero_noise_bank()
        with pytest.raises(ValueError, match="normalized"):
            clustering_stage(bank, PipelineConfig())

    def test_deterministic(self):
        bank = small_noisy_bank()
        cfg = PipelineConfig(seed=1, proj_dim=12, dbscan=DbscanParams(eps=0.4))
        feats = project_bank(initial_model(cfg, bank), bank)
        a = clustering_stage(feats, cfg)
        b = clustering_stage(feats, cfg)
        assert np.array_equal(a.labels.labels, b.labels.labels)
        assert np.array_equal(a.agreement.scores, b.agreement.scores)

    def test_is_the_composition_of_its_halves(self):
        bank = small_noisy_bank()
        cfg = PipelineConfig(seed=1, proj_dim=12, dbscan=DbscanParams(eps=0.4))
        feats = project_bank(initial_model(cfg, bank), bank)
        stage = clustering_stage(feats, cfg)
        labels = cluster_labels(feats.global_feats, cfg)
        agreement = agreement_scores(feats, cfg)
        assert np.array_equal(stage.labels.labels, labels.labels)
        assert stage.labels.k_clusters == labels.k_clusters
        assert np.array_equal(stage.agreement.scores, agreement.scores)

    def test_k_agreement_clamped_to_n_minus_one(self):
        from pplr.core import normalize_bank
        bank = normalize_bank(
            generate_synthetic_bank(SynthConfig(n_identities=2, samples_per_identity=4, dim=8))
        )
        clamped = agreement_scores(bank, PipelineConfig(k_agreement=20))
        exact = agreement_scores(bank, PipelineConfig(k_agreement=7))
        assert np.array_equal(clamped.scores, exact.scores)


class TestPkSampler:
    def test_audit_distinct_clusters_and_counts(self):
        rng = np.random.default_rng(17)
        members = [np.arange(i * 10, i * 10 + 10) for i in range(9)]
        for _ in range(50):
            batch, replaced = _pk_sample(rng, members, batch_p=4, batch_k=3)
            assert not replaced
            clusters = np.unique(batch // 10)
            assert clusters.size == 4
            for c in clusters:
                assert np.count_nonzero(batch // 10 == c) == 3
            assert np.unique(batch).size == batch.size

    def test_replacement_when_too_few_clusters(self):
        rng = np.random.default_rng(18)
        members = [np.arange(5), np.arange(5, 10)]
        batch, replaced = _pk_sample(rng, members, batch_p=4, batch_k=2)
        assert replaced
        assert batch.size == 8


class TestTrainingStage:
    def test_zero_learning_rate_freezes_model(self):
        bank = small_noisy_bank()
        cfg = PipelineConfig(
            epochs=1, iters_per_epoch=4, batch_p=4, batch_k=2,
            learning_rate=0.0, seed=0, proj_dim=12, dbscan=DbscanParams(eps=0.4),
        )
        model = initial_model(cfg, bank)
        before = model.projection.copy()
        feats = project_bank(model, bank)
        result = clustering_stage(feats, cfg)
        heads = init_heads(feats, result.labels)
        trace = training_stage(model, bank, feats, heads, result.labels, result.agreement, cfg)
        assert np.array_equal(model.projection, before)
        assert all(math.isfinite(it["total"]) for it in trace.iterations)

    def test_mode_differs_only_in_target_path(self):
        bank = small_noisy_bank()
        traces = {}
        for mode in ("pplr", "baseline"):
            cfg = PipelineConfig(
                epochs=1, iters_per_epoch=2, batch_p=4, batch_k=2, learning_rate=0.3,
                seed=0, proj_dim=12, mode=mode, dbscan=DbscanParams(eps=0.4),
            )
            model = initial_model(cfg, bank)
            feats = project_bank(model, bank)
            result = clustering_stage(feats, cfg)
            traces[mode] = training_stage(
                model, bank, feats, init_heads(feats, result.labels),
                result.labels, result.agreement, cfg,
                epoch=0, rng=np.random.default_rng(5),
            ).iterations
        first_pplr, first_base = traces["pplr"][0], traces["baseline"][0]
        # During warm-up the smoothing weight is forced to 1, so the part
        # loss is bit-identical to hard cross-entropy; mining and camera
        # terms see identical features. Only the global target differs.
        assert first_pplr["aals"] == first_base["pce"]
        assert first_pplr["triplet"] == first_base["triplet"]
        assert first_pplr["cam"] == first_base["cam"]
        assert first_pplr["pglr"] != first_base["gce"]

    @pytest.mark.parametrize("mode", ["pplr", "baseline"])
    def test_total_is_the_weighted_sum_of_the_terms(self, mode):
        bank = small_noisy_bank()
        cfg = PipelineConfig(
            epochs=1, iters_per_epoch=6, batch_p=4, batch_k=2, learning_rate=0.3,
            seed=0, proj_dim=12, mode=mode, dbscan=DbscanParams(eps=0.4),
            loss_weights=LossWeights(lambda_cam=0.3),
        )
        model = initial_model(cfg, bank)
        feats = project_bank(model, bank)
        result = clustering_stage(feats, cfg)
        trace = training_stage(
            model, bank, feats, init_heads(feats, result.labels), result.labels,
            result.agreement, cfg,
        )
        key_global, key_parts = ("gce", "pce") if mode == "baseline" else ("pglr", "aals")
        assert any(it["cam"] != 0.0 for it in trace.iterations)
        for it in trace.iterations:
            assert it["total"] == (
                it[key_global] + it[key_parts] + it["triplet"] + 0.3 * it["cam"]
            )

    def test_camera_loss_per_space_switch(self):
        bank = small_noisy_bank()
        losses = {}
        for per_space in (False, True):
            cfg = PipelineConfig(
                epochs=1, iters_per_epoch=2, batch_p=4, batch_k=2, learning_rate=0.3,
                seed=0, proj_dim=12, dbscan=DbscanParams(eps=0.4),
                loss_weights=LossWeights(lambda_cam=0.5, cam_per_space=per_space),
            )
            model = initial_model(cfg, bank)
            feats = project_bank(model, bank)
            result = clustering_stage(feats, cfg)
            trace = training_stage(
                model, bank, feats, init_heads(feats, result.labels),
                result.labels, result.agreement, cfg,
                epoch=0, rng=np.random.default_rng(5),
            )
            losses[per_space] = trace.iterations[0]["cam"]
        # Same batch and features; averaging over all spaces changes the
        # camera term while both stay finite.
        assert math.isfinite(losses[False]) and math.isfinite(losses[True])
        assert losses[False] != losses[True]

    def test_skips_when_no_clusters(self):
        bank = small_noisy_bank()
        cfg = PipelineConfig(seed=0, proj_dim=12)
        model = initial_model(cfg, bank)
        labels = PseudoLabels(labels=np.full(bank.n_samples, -1))
        ca = CrossAgreement(scores=np.zeros((bank.n_samples, bank.n_parts)))
        trace = training_stage(model, bank, project_bank(model, bank), [], labels, ca, cfg)
        assert trace.skipped_stage
        assert trace.iterations == []


def oracle_step_loss(projection, head_weights, raw_spaces, lab, targets, lw, proxies_global):
    """Scalar training loss with frozen targets, written with plain loops."""
    t_global, t_parts = targets
    b = lab.size
    n_parts = len(raw_spaces) - 1
    feats = []
    for x, w in zip(raw_spaces, head_weights):
        v = x @ projection
        f = v / np.linalg.norm(v, axis=1, keepdims=True)
        feats.append(f)

    def ce_rows(weight, f, target):
        logits = f @ weight.T
        total = 0.0
        for i in range(b):
            z = logits[i] - logits[i].max()
            logq = z - math.log(np.exp(z).sum())
            total += -(target[i] * logq).sum()
        return total / b

    loss = ce_rows(head_weights[0], feats[0], t_global)
    for n in range(n_parts):
        loss += ce_rows(head_weights[1 + n], feats[1 + n], t_parts[n]) / n_parts

    f = feats[0]
    dist = np.sqrt(np.maximum(
        ((f[:, None, :] - f[None, :, :]) ** 2).sum(-1), 0.0))
    terms = []
    for i in range(b):
        pos = [j for j in range(b) if j != i and lab[j] == lab[i]]
        neg = [j for j in range(b) if lab[j] != lab[i]]
        if not pos or not neg:
            continue
        d_p = max(dist[i, j] for j in pos)
        d_n = min(dist[i, j] for j in neg)
        terms.append(np.logaddexp(0.0, d_p - d_n))
    if terms:
        loss += sum(terms) / len(terms)

    proxy_set, cams = proxies_global
    cam_total = 0.0
    for i in range(b):
        pos_idx = [
            m
            for m in range(proxy_set.n_proxies)
            if proxy_set.proxy_cluster[m] == lab[i] and proxy_set.proxy_camera[m] != cams[i]
        ]
        if not pos_idx:
            continue
        sims = proxy_set.proxies @ f[i]
        neg_pool = [m for m in range(proxy_set.n_proxies) if proxy_set.proxy_cluster[m] != lab[i]]
        neg_pool.sort(key=lambda m: (-sims[m], m))
        support = pos_idx + neg_pool[: lw.n_hard_negatives]
        logits = np.array([sims[m] / lw.tau for m in support])
        z = logits - logits.max()
        lse = logits.max() + math.log(np.exp(z).sum())
        cam_total += -sum(logits[k] - lse for k in range(len(pos_idx))) / len(pos_idx)
    loss += lw.lambda_cam * cam_total / b
    return float(loss)


class TestSingleStepOracle:
    # (mode, constant_alpha, epoch): post-warm-up pplr takes its part
    # smoothing weights from the agreement scores, the constant-alpha mode
    # from the config, and warm-up forces alpha = 1 (the PGLR global
    # target is unchanged); baseline trains every head on hard labels.
    CASES = {
        "pplr": ("pplr", None, 6),
        "pplr-constant-alpha": ("pplr", 0.7, 6),
        "pplr-warmup": ("pplr", None, 2),
        "baseline": ("baseline", None, 6),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_post_update_matches_fd_oracle(self, case):
        mode, constant_alpha, epoch = self.CASES[case]
        # Hand-sized problem: N=12, K=3, two parts, one PK batch.
        bank = generate_synthetic_bank(
            SynthConfig(
                n_identities=3, samples_per_identity=4, dim=8, n_parts=2,
                n_cameras=2, cluster_spread=0.25, occlusion_fraction=0.0,
                camera_shift=0.15, seed=12,
            )
        )
        cfg = PipelineConfig(
            epochs=1, iters_per_epoch=1, batch_p=3, batch_k=2, learning_rate=0.3,
            seed=0, proj_dim=4, k_agreement=3, mode=mode,
            refinement=RefinementConfig(
                beta=0.5, aals_warmup_epochs=5, constant_alpha=constant_alpha
            ),
            loss_weights=LossWeights(lambda_cam=0.5, tau=0.4, n_hard_negatives=2),
        )
        labels = PseudoLabels(labels=bank.gt_ids)
        rng_ca = np.random.default_rng(31)
        agreements = CrossAgreement(scores=rng_ca.uniform(0.1, 0.9, size=(12, 2)))

        model = initial_model(cfg, bank)
        proj0 = model.projection.copy()
        feats0 = project_bank(model, bank)
        heads0 = [h.weight.copy() for h in init_heads(feats0, labels)]

        # Predict the batch the stage will draw, then freeze the targets
        # the trainer would build at the pre-update parameters.
        batch, _ = _pk_sample(np.random.default_rng(99), labels.cluster_members(), 3, 2)
        lab = labels.labels[batch]
        ca = agreements.scores[batch]
        raw_spaces = [np.asarray(m[batch], dtype=np.float64) for _, m in bank.spaces()]

        def forward_probs(weight, x):
            v = x @ proj0
            f = v / np.linalg.norm(v, axis=1, keepdims=True)
            logits = f @ weight.T
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        q = [forward_probs(heads0[s], raw_spaces[s]) for s in range(3)]
        hard = np.eye(3)[lab]
        if mode == "baseline":
            alphas = np.ones_like(ca)
            t_global = hard
        else:
            if epoch < 5:
                alphas = np.ones_like(ca)
            elif constant_alpha is not None:
                alphas = np.full_like(ca, constant_alpha)
            else:
                alphas = ca
            exp_ca = np.exp(ca - ca.max(axis=1, keepdims=True))
            weights_ca = exp_ca / exp_ca.sum(axis=1, keepdims=True)
            t_global = 0.5 * hard + 0.5 * np.einsum("bn,nbk->bk", weights_ca, np.stack(q[1:]))
        t_parts = [
            alphas[:, n, None] * hard + ((1.0 - alphas[:, n]) / 3)[:, None]
            for n in range(2)
        ]

        from pplr.objectives import build_camera_proxies

        proxy_set = build_camera_proxies(feats0.global_feats, labels, bank.camera_ids)
        cams = bank.camera_ids[batch]
        lw = cfg.loss_weights

        def loss_of_projection(p):
            return oracle_step_loss(
                p, heads0, raw_spaces, lab, (t_global, t_parts), lw, (proxy_set, cams)
            )

        def loss_of_head(w, which):
            ws = [h.copy() for h in heads0]
            ws[which] = w
            return oracle_step_loss(
                proj0, ws, raw_spaces, lab, (t_global, t_parts), lw, (proxy_set, cams)
            )

        grad_proj = fd_gradient(loss_of_projection, proj0, step=1e-6)
        grad_heads = [
            fd_gradient(lambda w, s=s: loss_of_head(w, s), heads0[s], step=1e-6)
            for s in range(3)
        ]

        trace = training_stage(model, bank, feats0, init_heads(feats0, labels), labels,
                               agreements, cfg, epoch=epoch, rng=np.random.default_rng(99))

        expected_proj = proj0 - 0.3 * grad_proj
        assert np.abs(model.projection - expected_proj).max() < 1e-8
        for s in range(3):
            expected_w = heads0[s] - 0.3 * grad_heads[s]
            assert np.abs(model.heads[s].weight - expected_w).max() < 1e-8

        # The reported head losses: cross-entropy against the global target
        # and the smoothing decomposition of each part's term.
        log_q = [np.log(qs) for qs in q]
        expected_global = np.mean(
            [soft_cross_entropy_oracle(t_global[i], log_q[0][i]) for i in range(lab.size)]
        )
        expected_parts = np.mean(
            [
                aals_loss_oracle(int(lab[i]), float(alphas[i, n]), log_q[1 + n][i])
                for n in range(2)
                for i in range(lab.size)
            ]
        )
        losses = trace.iterations[0]
        key_global, key_parts = ("gce", "pce") if mode == "baseline" else ("pglr", "aals")
        assert abs(losses[key_global] - expected_global) < 1e-10
        assert abs(losses[key_parts] - expected_parts) < 1e-10


class TestRun:
    def test_epochs_zero(self):
        bank = small_noisy_bank()
        reports, model = run(PipelineConfig(epochs=0, seed=0, proj_dim=12), bank)
        assert reports == []
        assert model.heads == []

    def test_reports_and_determinism(self, tmp_path):
        bank = small_noisy_bank()
        cfg = PipelineConfig(
            epochs=2, iters_per_epoch=5, batch_p=4, batch_k=2, seed=4,
            proj_dim=12, k_agreement=7, dbscan=DbscanParams(eps=0.4),
        )
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for report_path in paths:
            run(cfg, bank, report_path=report_path, model_path=f"{report_path}.model")
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "a.jsonl.model").read_bytes() == (tmp_path / "b.jsonl.model").read_bytes()

        lines = paths[0].read_text().splitlines()
        assert len(lines) == 3
        assert "config" in json.loads(lines[0])
        first = json.loads(lines[1])
        assert first["epoch"] == 0
        assert "wall_time" not in first
        assert first["k_clusters"] >= 1
        assert len(first["losses"]) == 5
        assert first["raw_quality"] is not None
        assert first["retrieval"] is not None

    def test_one_projection_and_head_set_per_epoch(self, monkeypatch):
        import pplr.pipeline as pipeline

        calls = {"project_bank": 0, "init_heads": 0}
        for name in calls:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        cfg = PipelineConfig(
            epochs=2, iters_per_epoch=2, batch_p=4, batch_k=2, seed=4,
            proj_dim=12, k_agreement=7, dbscan=DbscanParams(eps=0.4),
        )
        reports, _ = run(cfg, small_noisy_bank())
        assert all(r.k_clusters > 0 and r.refined_quality is not None for r in reports)
        assert calls == {"project_bank": 2, "init_heads": 2}

    def test_quality_metrics_absent_without_gt(self):
        base = small_noisy_bank()
        from pplr.core import FeatureBank

        bank = FeatureBank(
            global_feats=base.global_feats,
            part_feats=base.part_feats,
            camera_ids=base.camera_ids,
            gt_ids=None,
        )
        cfg = PipelineConfig(
            epochs=1, iters_per_epoch=2, batch_p=4, batch_k=2, seed=0,
            proj_dim=12, dbscan=DbscanParams(eps=0.4),
        )
        reports, _ = run(cfg, bank)
        assert reports[0].raw_quality is None
        assert reports[0].retrieval is None

    def test_model_blob_roundtrip(self, tmp_path):
        bank = small_noisy_bank()
        cfg = PipelineConfig(
            epochs=1, iters_per_epoch=2, batch_p=4, batch_k=2, seed=0,
            proj_dim=12, dbscan=DbscanParams(eps=0.4),
        )
        _, model = run(cfg, bank)
        path = tmp_path / "model.pplm"
        save_model(model, path)
        back = load_model(path)
        assert np.allclose(back.projection, model.projection, atol=1e-6)
        assert len(back.heads) == len(model.heads)
        for a, b in zip(back.heads, model.heads):
            assert np.allclose(a.weight, b.weight, atol=1e-6)

    def test_model_that_overflows_float32_is_not_written(self, tmp_path):
        path = tmp_path / "model.pplm"
        with pytest.raises(NumericalError, match="float32"):
            save_model(ToyModel(projection=np.full((4, 2), 1e39)), path)
        assert not path.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("scale", [0.0, 1e200], ids=["collapsed", "overflowing"])
    def test_degenerate_projection_names_the_space(self, scale):
        bank = small_noisy_bank()
        model = ToyModel(projection=np.full((bank.dim, 3), scale))
        with pytest.raises(NumericalError, match="global row 0"):
            project_bank(model, bank)

    def test_report_embeds_config_echo(self, tmp_path):
        bank = small_noisy_bank()
        cfg = PipelineConfig(epochs=0, seed=0, proj_dim=12)
        path = tmp_path / "r.jsonl"
        run(cfg, bank, report_path=path, config_echo={"marker": 42})
        assert json.loads(path.read_text().splitlines()[0]) == {"config": {"marker": 42}}

    def test_write_reports_default_echo(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_reports([], path, PipelineConfig(epochs=0, proj_dim=12))
        echoed = json.loads(path.read_text().splitlines()[0])["config"]
        assert echoed["mode"] == "pplr"
        assert echoed["dbscan"]["eps"] == 0.6


@pytest.mark.parametrize("name", ["learning_rate", "epochs", "iters_per_epoch", "batch_k"])
def test_pipeline_config_rejects_non_finite_numbers(name, non_finite):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        PipelineConfig(**{name: non_finite})


@pytest.mark.parametrize("seed", [-1, -(2**70)], ids=["minus-one", "below-int64"])
def test_pipeline_config_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PipelineConfig(seed=seed)


def test_pipeline_config_accepts_an_int_too_large_for_a_float():
    assert PipelineConfig(epochs=10**400).epochs == 10**400
