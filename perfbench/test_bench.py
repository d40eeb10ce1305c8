"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench

Each check passes on real command output and fails on a corrupted copy:
a flipped label, a perturbed score, a swapped row.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from pplr.cli import main as pplr_main  # noqa: E402
from pplr.evaluate import label_quality  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

K = 20
OCCLUDED = 2


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real cluster/agree/refine/eval output on a 96-sample bank whose
    last part is fully occluded."""
    tmp = tmp_path_factory.mktemp("bench")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "synth": {"n_identities": 8, "samples_per_identity": 12, "cluster_spread": 0.5,
                  "occlusion_fraction": [0.0, 0.0, 1.0], "seed": 3},
        "dbscan": {"eps": 0.5},
    }))
    bank = tmp / "bank.pplb"
    assert pplr_main(["simgen", "--config", str(cfg), "--out", str(bank)]) == 0
    for cmd in ("cluster", "agree", "refine", "eval"):
        out = tmp / f"{cmd}.out"
        assert pplr_main([cmd, "--config", str(cfg), "--bank", str(bank), "--out", str(out)]) == 0

    def lines(cmd):
        return [json.loads(line) for line in (tmp / f"{cmd}.out").read_text().splitlines()]

    raw = checks.read_bank(bank)
    labels = np.array([r["label"] for r in lines("cluster")])
    assert labels.max() >= 2, "the fixture needs several clusters"
    return {
        "bank": raw,
        "labels": labels,
        "scores": np.array([r["scores"] for r in lines("agree")]),
        "refine": lines("refine"),
        "eval": json.loads((tmp / "eval.out").read_text()),
    }


def _retrieval_problems(o, reported):
    cmc = {int(k.split("@")[1]): v for k, v in reported.items() if k.startswith("CMC@")}
    b = o["bank"]
    return checks.check_retrieval(reported["mAP"], cmc, checks.unit_rows(b["global"]), b["gts"], b["cams"])


def _quality_problems(labels, reference_labels, gt):
    q = label_quality(reference_labels, gt)
    return checks.check_label_quality(q.accuracy, q.pairwise_f, labels, gt)


def test_checks_pass_on_real_output(outputs):
    o, b = outputs, outputs["bank"]
    assert checks.check_canonical_labels(o["labels"]) == []
    assert _quality_problems(o["labels"], o["labels"], b["gts"]) == []
    assert checks.check_score_form(o["scores"], K) == []
    assert checks.check_agreement(o["scores"], b["global"], b["parts"], K) == []
    assert checks.check_occluded_part(o["scores"], OCCLUDED, K) == []
    assert checks.check_refine(o["refine"], o["labels"], o["scores"], 0.5) == []
    assert _retrieval_problems(o, o["eval"]) == []


def _first_member(labels, cluster):
    return int(np.flatnonzero(labels == cluster)[0])


def test_flipped_label_fails(outputs):
    o, gt = outputs, outputs["bank"]["gts"]
    flipped = o["labels"].copy()
    i = int(np.flatnonzero(flipped >= 0)[-1])
    flipped[i] = (flipped[i] + 1) % (flipped.max() + 1)
    assert _quality_problems(flipped, o["labels"], gt)
    assert checks.check_refine(o["refine"], flipped, o["scores"], 0.5)
    swapped = o["labels"].copy()
    swapped[o["labels"] == 0], swapped[o["labels"] == 1] = 1, 0
    assert checks.check_canonical_labels(swapped)
    gap = np.where(o["labels"] == 1, 7, o["labels"])
    assert checks.check_canonical_labels(gap)


def test_perturbed_score_fails(outputs):
    o, b = outputs, outputs["bank"]
    scores = o["scores"].copy()
    scores[5, 0] += 1e-3
    assert checks.check_score_form(scores, K)
    assert checks.check_agreement(scores, b["global"], b["parts"], K)
    i = int(np.flatnonzero(o["labels"] >= 0)[0])
    scores = o["scores"].copy()
    scores[i, 1] = (scores[i, 1] + 0.5) % 1.0
    assert checks.check_refine(o["refine"], o["labels"], scores, 0.5)
    reported = dict(o["eval"], mAP=o["eval"]["mAP"] + 1e-6)
    assert _retrieval_problems(o, reported)


def test_swapped_row_fails(outputs):
    o, b = outputs, outputs["bank"]
    a, c = _first_member(o["labels"], 0), _first_member(o["labels"], 1)
    scores = o["scores"].copy()
    scores[[a, c]] = scores[[c, a]]
    assert checks.check_agreement(scores, b["global"], b["parts"], K)
    records = [dict(r) for r in o["refine"]]
    records[a]["pglr"], records[c]["pglr"] = records[c]["pglr"], records[a]["pglr"]
    records[a]["aals"], records[c]["aals"] = records[c]["aals"], records[a]["aals"]
    assert checks.check_refine(records, o["labels"], o["scores"], 0.5)
    out_of_order = list(o["refine"])
    out_of_order[a], out_of_order[c] = out_of_order[c], out_of_order[a]
    assert checks.check_refine(out_of_order, o["labels"], o["scores"], 0.5)


def test_occluded_and_gain_and_bytes_checks_fail_when_they_should(outputs):
    assert checks.check_occluded_part(outputs["scores"], 0, K)
    assert checks.check_improves(0.5, 0.5)
    assert checks.check_improves(0.6, 0.5) == []
    assert checks.check_identical("report.jsonl", ["a", "a", "b"])
    assert checks.check_identical("report.jsonl", ["a", "a"]) == []


def test_own_label_scores_match_definition():
    # Clusters {0,1,2} and {3,4}; identities {0,1} {2,3,4}; sample 5 is noise.
    labels = np.array([0, 0, 0, 1, 1, -1])
    gt = np.array([0, 0, 1, 1, 1, 1])
    accuracy, f = checks.label_scores(labels, gt)
    assert accuracy == pytest.approx(4 / 6)
    precision, recall = 2 / 4, 2 / 7
    assert f == pytest.approx(2 * precision * recall / (precision + recall))


def test_tracer_self_time_and_restore():
    import pplr.neighbors as neighbors
    import pplr.pipeline as pipeline

    original = pipeline.k_reciprocal_jaccard
    tracer = Tracer()
    tracer.install()
    try:
        x = np.random.default_rng(0).standard_normal((40, 8))
        pipeline.k_reciprocal_jaccard(x, 10, 3)
    finally:
        tracer.uninstall()
    assert pipeline.k_reciprocal_jaccard is original
    assert neighbors.DistanceMatrix.__post_init__.__name__ == "__post_init__"
    spans = tracer.take()
    names = [s["name"] for s in spans]
    assert names[0] == "neighbors.k_reciprocal_jaccard"
    assert "neighbors.pairwise_sq_euclidean" in names
    assert names.count("neighbors.distance_validation") == 2
    summary = summarize(spans)
    outer = summary["neighbors.k_reciprocal_jaccard"]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == spans[0]["id"])
    assert outer["self_s"] == pytest.approx(outer["total_s"] - children)
    assert outer["counts"]["peak_mb"][0] >= 0.0


def test_unused_work_counts_only_unprinted_results():
    def span(i, parent, name, start, end):
        return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "counts": {}}

    spans = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "pipeline.clustering_stage", 0.0, 9.0),
        span(2, 1, "neighbors.k_reciprocal_jaccard", 0.0, 4.0),
        span(3, 2, "neighbors.pairwise_sq_euclidean", 0.0, 1.0),
        span(4, 1, "cluster.dbscan", 4.0, 5.0),
        span(5, 1, "neighbors.pairwise_sq_euclidean", 5.0, 6.0),
        span(6, 1, "neighbors.topk_ranked_lists", 6.0, 8.0),
        span(7, 1, "agreement.agreement_matrix", 8.0, 9.0),
    ]
    assert layers.unused_work_s(spans, "cluster") == pytest.approx(4.0)
    assert layers.unused_work_s(spans, "agree") == pytest.approx(5.0)
    assert layers.unused_work_s(spans, "refine") == 0.0
