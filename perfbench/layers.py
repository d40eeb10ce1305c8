"""Per-layer metrics from the spans of traced rounds.

Times and counts are per round: the workload's epochs in process plus the
four label commands in their child processes. ``_s`` metrics are inclusive
times, except the ``self`` ones named in PER_LAYER. The median over the
traced rounds of one invocation is reported.
"""

from __future__ import annotations

import json
import statistics

from tracer import merge, summarize

UNITS = {"_s": "s", "_calls": "count", "_mb": "MB", "_pct": "%", "_fraction": "fraction"}

PER_LAYER = [
    "neighbors.k_reciprocal_jaccard_s",
    "neighbors.k_reciprocal_jaccard_peak_mb",
    "neighbors.topk_ranked_lists_s",
    "neighbors.pairwise_sq_euclidean_s",
    "neighbors.pairwise_sq_euclidean_calls",
    "neighbors.distance_validation_s",
    "cluster.dbscan_s",
    "cluster.k_clusters",
    "cluster.n_outliers",
    "agreement.agreement_matrix_s",
    "refine.pglr_targets_s",
    "refine.aals_targets_s",
    "objectives.inter_camera_loss_batch_s",
    "objectives.softmax_triplet_loss_s",
    "objectives.build_camera_proxies_s",
    "objectives.cam_used_fraction",
    "pipeline.clustering_stage_s",
    "pipeline.training_stage_s",
    "pipeline.project_bank_calls",
    "pipeline.init_heads_calls",
    "pipeline.write_reports_s",
    "pipeline.save_model_s",
    "evaluate.map_cmc_s",
    "evaluate.label_quality_s",
    "ingest.read_feature_bank_s",
    "ingest.generate_synthetic_bank_s",
    "ingest.write_feature_bank_s",
    "cli.startup_s",
    "cli.output_s",
    "cli.unused_work_s",
    "core.bank_validation_s",
    "trace.overhead_pct",
]

# Inclusive-time metrics named after their span.
_INCLUSIVE = [
    "neighbors.k_reciprocal_jaccard",
    "neighbors.topk_ranked_lists",
    "neighbors.pairwise_sq_euclidean",
    "cluster.dbscan",
    "agreement.agreement_matrix",
    "refine.pglr_targets",
    "refine.aals_targets",
    "objectives.inter_camera_loss_batch",
    "objectives.softmax_triplet_loss",
    "objectives.build_camera_proxies",
    "pipeline.write_reports",
    "pipeline.save_model",
    "evaluate.map_cmc",
    "evaluate.label_quality",
    "ingest.read_feature_bank",
    "core.bank_validation",
]

# Work a command does for results it never prints: by command, the spans
# that are unused, and the spans that are unused when called directly from
# the clustering stage (the top-k distance matrices, not the one inside
# the k-reciprocal distance).
_UNUSED = {
    "cluster": ({"neighbors.topk_ranked_lists", "agreement.agreement_matrix"},
                {"neighbors.pairwise_sq_euclidean"}),
    "agree": ({"neighbors.k_reciprocal_jaccard", "cluster.dbscan"}, set()),
}


def unit(name: str) -> str:
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def unused_work_s(spans: list, command: str) -> float:
    names, under_stage = _UNUSED.get(command, (set(), set()))
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["name"] in names or (
            s["name"] in under_stage and parent is not None
            and parent["name"] == "pipeline.clustering_stage"
        ):
            total += s["end"] - s["start"]
    return total


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def round_metrics(r: dict) -> dict:
    s = merge(summarize(r["spans"]), *(summarize(sp) for _, sp in r["child_spans"]))

    def get(name, field):
        return s[name][field] if name in s else 0

    def counts(name, key):
        return s[name]["counts"].get(key, []) if name in s else []

    out = {f"{name}_s": float(get(name, "total_s")) for name in _INCLUSIVE}
    out["neighbors.distance_validation_s"] = float(get("neighbors.distance_validation", "total_s"))
    out["neighbors.k_reciprocal_jaccard_peak_mb"] = max(
        counts("neighbors.k_reciprocal_jaccard", "peak_mb"), default=0.0)
    out["neighbors.pairwise_sq_euclidean_calls"] = get("neighbors.pairwise_sq_euclidean", "calls")
    out["cluster.k_clusters"] = _mean(counts("cluster.dbscan", "k_clusters"))
    out["cluster.n_outliers"] = _mean(counts("cluster.dbscan", "n_outliers"))
    samples = sum(counts("objectives.inter_camera_loss_batch", "samples"))
    skipped = sum(counts("objectives.inter_camera_loss_batch", "skipped"))
    out["objectives.cam_used_fraction"] = (samples - skipped) / samples if samples else 0.0
    out["pipeline.clustering_stage_s"] = float(get("pipeline.clustering_stage", "self_s"))
    out["pipeline.training_stage_s"] = float(get("pipeline.training_stage", "self_s"))
    out["pipeline.project_bank_calls"] = get("pipeline.project_bank", "calls")
    out["pipeline.init_heads_calls"] = get("pipeline.init_heads", "calls")
    out["cli.startup_s"] = r["startup_s"]
    out["cli.output_s"] = float(get("cli.main", "self_s"))
    out["cli.unused_work_s"] = sum(unused_work_s(sp, cmd) for cmd, sp in r["child_spans"])
    return out


def per_layer(rounds: list, setup_spans: list) -> dict:
    traced = [r for r in rounds if r["traced"]]
    per_round = [round_metrics(r) for r in traced]
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    setup = merge(*(summarize(sp) for sp in setup_spans))
    for name in ("ingest.generate_synthetic_bank", "ingest.write_feature_bank"):
        values[f"{name}_s"] = setup[name]["total_s"] if name in setup else 0.0
    untraced_s = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced_s = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return {name: {"value": values[name], "unit": unit(name)} for name in PER_LAYER}


def write_trace(rounds: list, setup_spans: list, path) -> None:
    """All recorded spans as JSON lines, tagged with round and process."""
    with open(path, "w", encoding="utf-8") as fh:
        for proc, spans in zip(("bench", "simgen"), setup_spans):
            for span in spans:
                fh.write(json.dumps({"round": "setup", "process": proc, **span}) + "\n")
        for r in rounds:
            if not r["traced"]:
                continue
            for proc, spans in [("bench", r["spans"])] + r["child_spans"]:
                for span in spans:
                    fh.write(json.dumps({"round": r["index"], "process": proc, **span}) + "\n")
