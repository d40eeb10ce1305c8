"""Outside-in tracing of pplr: wrap public functions where callers look them up.

Each wrapped call records one span (name, start, end, parent span, named
counts). Spans nest through a stack, so a span's self time is its duration
minus the durations of its direct children. Spans stay in memory until the
caller writes them out. Nothing in the package itself is modified on disk;
the wrappers replace module attributes for the life of one ``install()``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict

# Counter hooks map a call's (args, result) to named counts on its span.


def _dbscan_counts(args, result):
    return {"k_clusters": result.k_clusters, "n_outliers": result.n_outliers}


def _cam_counts(args, result):
    return {"samples": len(args[0]), "skipped": int(result[2])}


# (module, attribute the caller looks up, span name, counter hook)
TARGETS = [
    ("pplr.pipeline", "project_bank", "pipeline.project_bank", None),
    ("pplr.pipeline", "clustering_stage", "pipeline.clustering_stage", None),
    ("pplr.pipeline", "init_heads", "pipeline.init_heads", None),
    ("pplr.pipeline", "training_stage", "pipeline.training_stage", None),
    ("pplr.pipeline", "write_reports", "pipeline.write_reports", None),
    ("pplr.pipeline", "save_model", "pipeline.save_model", None),
    ("pplr.pipeline", "k_reciprocal_jaccard", "neighbors.k_reciprocal_jaccard", None),
    ("pplr.pipeline", "pairwise_sq_euclidean", "neighbors.pairwise_sq_euclidean", None),
    ("pplr.neighbors", "pairwise_sq_euclidean", "neighbors.pairwise_sq_euclidean", None),
    ("pplr.pipeline", "topk_ranked_lists", "neighbors.topk_ranked_lists", None),
    ("pplr.neighbors", "DistanceMatrix.__post_init__", "neighbors.distance_validation", None),
    ("pplr.pipeline", "dbscan", "cluster.dbscan", _dbscan_counts),
    ("pplr.pipeline", "agreement_matrix", "agreement.agreement_matrix", None),
    ("pplr.pipeline", "pglr_targets", "refine.pglr_targets", None),
    ("pplr.pipeline", "aals_targets", "refine.aals_targets", None),
    ("pplr.cli", "pglr_targets", "refine.pglr_targets", None),
    ("pplr.cli", "aals_targets", "refine.aals_targets", None),
    ("pplr.pipeline", "build_camera_proxies", "objectives.build_camera_proxies", None),
    ("pplr.pipeline", "inter_camera_loss_batch", "objectives.inter_camera_loss_batch", _cam_counts),
    ("pplr.pipeline", "softmax_triplet_loss", "objectives.softmax_triplet_loss", None),
    ("pplr.pipeline", "map_cmc", "evaluate.map_cmc", None),
    ("pplr.cli", "map_cmc", "evaluate.map_cmc", None),
    ("pplr.pipeline", "label_quality", "evaluate.label_quality", None),
    ("pplr.cli", "clustering_stage", "pipeline.clustering_stage", None),
    ("pplr.cli", "init_heads", "pipeline.init_heads", None),
    ("pplr.cli", "read_feature_bank", "ingest.read_feature_bank", None),
    ("pplr.cli", "generate_synthetic_bank", "ingest.generate_synthetic_bank", None),
    ("pplr.cli", "write_feature_bank", "ingest.write_feature_bank", None),
    ("pplr.ingest", "generate_synthetic_bank", "ingest.generate_synthetic_bank", None),
    ("pplr.core", "FeatureBank.__post_init__", "core.bank_validation", None),
]

# Spans that record their peak memory: the highest resident set size seen
# during the call, less the size at entry, sampled every SAMPLE_S seconds.
# (tracemalloc would count exactly, but it slows the Python loops inside
# k_reciprocal_jaccard about eightfold, which distorts every other span.)
MEMORY_SPANS = {"neighbors.k_reciprocal_jaccard"}
SAMPLE_S = 0.002
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class _PeakRss:
    """Background sampler of this process's resident set size."""

    def __init__(self) -> None:
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_S):
            self.peak = max(self.peak, _rss_bytes())

    def stop_mb(self) -> float:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        return (self.peak - self.base) / 2**20


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []
        self._patches = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _wrap(self, fn, name, hook):
        track_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            sampler = _PeakRss() if track_memory else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if sampler is not None:
                    span["counts"]["peak_mb"] = sampler.stop_mb()
                self.close(span)
            if hook is not None:
                span["counts"].update(hook(args, result))
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, dotted, name, hook in TARGETS:
            owner, attr = _resolve(module_name, dotted)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> list:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _entry() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(list)}


def summarize(spans) -> dict:
    """Per span name: call count, inclusive seconds, self seconds, counts.

    Span ids are unique within one list; lists from different processes
    must be summarized separately and merged with :func:`merge`.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s in spans:
        entry = out.setdefault(s["name"], _entry())
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[s["id"]]
        for key, value in s["counts"].items():
            entry["counts"][key].append(value)
    return out


def merge(*summaries) -> dict:
    out = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, _entry())
            acc["calls"] += entry["calls"]
            acc["total_s"] += entry["total_s"]
            acc["self_s"] += entry["self_s"]
            for key, values in entry["counts"].items():
                acc["counts"][key].extend(values)
    return out
