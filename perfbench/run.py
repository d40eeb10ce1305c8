"""pplr benchmark: epoch time, memory and label-command latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pplr is imported from ``src/``.
Every round of a workload runs the same operations: ``pipeline.run`` over
the workload's epochs in this process, then ``pplr cluster``, ``agree``,
``refine`` and ``eval`` as fresh child processes on a bank file. Rounds
repeat until the next one would end after S seconds (at least two rounds),
then the outputs are checked by ``checks.py`` and the last line of stdout is
one JSON result. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports per-layer metrics from
the traced ones plus the tracing overhead. See README.md.
"""

import os
import sys

# BLAS threads are pinned before numpy loads, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import checks
import layers
from tracer import Tracer, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

COMMANDS = ("cluster", "agree", "refine", "eval")
MIN_ROUNDS = 2
# eps suits the synthetic banks below (the radius is data-dependent).
DBSCAN = {"eps": 0.5}
# Every bank starts from the program's default bank (30 ids x 20 samples,
# 3 parts, 20% occlusion) with a cluster spread of 0.7 instead of 0.9: at
# 0.9 the final mAP and pairwise F move by 10-20% from one bank seed to
# the next, wider than any regression bound worth having.
BANK = {"cluster_spread": 0.7}
OCCLUDED_BANK = {**BANK, "n_identities": 90, "n_parts": 6, "occlusion_fraction": [0.2] * 5 + [1.0]}

# Each workload: the bank and pipeline settings of the epoch leg and how
# many pipeline runs it makes per round, the bank of the command leg and
# how many passes over the four commands it makes per round, and which leg
# gives final_map and label_pairwise_f. The light leg repeats so that its
# metrics have a few samples per invocation too.
WORKLOADS = {
    "train-n600": {
        "epoch_synth": BANK,
        "pipeline": {"epochs": 1, "iters_per_epoch": 200},
        "epoch_runs": 2,
        "cmd_synth": BANK,
        "cmd_passes": 2,
        "primary": "epoch",
    },
    "cluster-n2400": {
        "epoch_synth": {**BANK, "n_identities": 120},
        "pipeline": {"epochs": 1, "iters_per_epoch": 5},
        "epoch_runs": 1,
        "cmd_synth": BANK,
        "cmd_passes": 3,
        "primary": "epoch",
    },
    "cli-labels-n1800": {
        "epoch_synth": BANK,
        "pipeline": {"epochs": 1, "iters_per_epoch": 50},
        "epoch_runs": 5,
        "cmd_synth": OCCLUDED_BANK,
        "cmd_passes": 1,
        "primary": "cmd",
    },
}


def process_age() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Bench:
    """One benchmark invocation: set-up, rounds, checks and metrics."""

    def __init__(self, workload: str, seed: int, work: Path, tracer) -> None:
        import pplr.cli
        import pplr.ingest
        import pplr.pipeline

        self.pplr_pipeline = pplr.pipeline
        self.spec = WORKLOADS[workload]
        self.work = work
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.epoch_cfg_path = work / "epoch.json"
        self.cmd_cfg_path = work / "cmd.json"
        self._write_json(self.epoch_cfg_path, {
            "synth": {**self.spec["epoch_synth"], "seed": seed},
            "dbscan": DBSCAN,
            "pipeline": {**self.spec["pipeline"], "seed": seed},
        })
        self._write_json(self.cmd_cfg_path, {
            "synth": {**self.spec["cmd_synth"], "seed": seed},
            "dbscan": DBSCAN,
            "pipeline": {"seed": seed},
        })
        self.epoch_cfg = pplr.cli.parse_config(str(self.epoch_cfg_path))
        self.cmd_cfg = pplr.cli.parse_config(str(self.cmd_cfg_path))
        self.bank = pplr.ingest.generate_synthetic_bank(self.epoch_cfg.synth)
        self.bank_path = work / "cmd.pplb"
        self.setup_spans = []
        code, _, _ = self._spawn(
            ["simgen", "--config", str(self.cmd_cfg_path), "--out", str(self.bank_path)],
            work / "simgen.err", work / "simgen.spans" if tracer else None,
        )
        if code != 0:
            raise RuntimeError(f"pplr simgen exited {code}: {(work / 'simgen.err').read_text()}")
        if tracer:
            self.setup_spans = [tracer.take(), read_spans(work / "simgen.spans")]
        self.last_clustering = None

    @staticmethod
    def _write_json(path: Path, doc) -> None:
        path.write_text(json.dumps(doc), "utf-8")

    def spy_clustering(self) -> None:
        """Keep the epoch leg's last pseudo-labels and agreement for the
        checks; the pipeline looks the name up at call time."""
        original = self.pplr_pipeline.clustering_stage

        def spy(*args, **kwargs):
            self.last_clustering = original(*args, **kwargs)
            return self.last_clustering

        self.pplr_pipeline.clustering_stage = spy

    def _spawn(self, cli_args, err_path: Path, spans_path=None):
        """Run one pplr command to exit: (exit code, seconds, peak RSS MB)."""
        if spans_path is None:
            argv = [sys.executable, "-m", "pplr.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "child.py"), str(spans_path), *cli_args]
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024

    def round(self, index: int, traced: bool) -> dict:
        """One round: the epoch leg in process, then the command leg, each
        command a child process."""
        rdir = self.work / f"round{index}"
        result = {"index": index, "traced": traced, "dir": rdir, "failed": 0, "attempted": 0,
                  "epoch_s": [], "cmd_s": {cmd: [] for cmd in COMMANDS},
                  "child_rss_mb": 0.0, "child_spans": [], "spans": []}
        epochs = self.epoch_cfg.pipeline.epochs
        t_round = time.perf_counter()
        for j in range(self.spec["epoch_runs"]):
            out = rdir / f"run{j}"
            out.mkdir(parents=True)
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                _, result["model"] = self.pplr_pipeline.run(
                    self.epoch_cfg.pipeline, self.bank,
                    report_path=out / "report.jsonl", model_path=out / "model.pplm",
                    config_echo=self.epoch_cfg.echo(),
                )
                result["epoch_s"].append((time.perf_counter() - t0) / epochs)
            except Exception as exc:  # a failed run counts its epochs as failed
                log(f"round {index}: pipeline.run failed: {exc!r}")
                result["failed"] += epochs
                result.pop("model", None)
            finally:
                if traced:
                    self.tracer.uninstall()
            result["attempted"] += epochs
            result["epoch_dir"] = out
        if traced:
            result["spans"] = self.tracer.take()
        for j in range(self.spec["cmd_passes"]):
            out = rdir / f"pass{j}"
            out.mkdir(parents=True)
            failed_before = result["failed"]
            for cmd in COMMANDS:
                spans_path = out / f"{cmd}.spans" if traced else None
                code, elapsed, rss = self._spawn(
                    [cmd, "--config", str(self.cmd_cfg_path), "--bank", str(self.bank_path),
                     "--out", str(out / f"{cmd}.out")],
                    out / f"{cmd}.err", spans_path,
                )
                result["attempted"] += 1
                if code != 0:
                    log(f"round {index}: pplr {cmd} exited {code}: {(out / f'{cmd}.err').read_text()}")
                    result["failed"] += 1
                    continue
                result["cmd_s"][cmd].append(elapsed)
                result["child_rss_mb"] = max(result["child_rss_mb"], rss)
                if traced:
                    result["child_spans"].append((cmd, read_spans(spans_path)))
            result["cmd_dir"] = out if result["failed"] == failed_before else None
        result["wall_s"] = time.perf_counter() - t_round
        return result

    def startup_s(self) -> float:
        """Spawn-to-exit time of a bare ``import pplr.cli``."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pplr.cli"], env=self.env, check=True)
        return time.perf_counter() - t0


def run_rounds(bench: Bench, seconds: float, trace: bool) -> list:
    """Untraced rounds, or untraced/traced pairs, until the next would end
    after ``seconds``."""
    rounds = []
    start = time.perf_counter()
    step = 2 if trace else 1
    while True:
        rounds.append(bench.round(len(rounds), traced=False))
        if trace:
            rounds.append(bench.round(len(rounds), traced=True))
            rounds[-1]["startup_s"] = bench.startup_s()
        _prune(rounds)
        elapsed = time.perf_counter() - start
        per_step = elapsed / (len(rounds) / step)
        if len(rounds) >= MIN_ROUNDS and elapsed + per_step > seconds:
            return rounds


def _prune(rounds: list) -> None:
    """Keep digests of every round but the files of the last one only."""
    for r in rounds[:-1]:
        if "digests" in r:
            continue
        r["digests"] = _digests(r["dir"])
        shutil.rmtree(r["dir"])


def _digests(rdir: Path) -> list:
    """(file name, sha256) of every output file of one round."""
    return [(p.name, checks.digest(p)) for p in sorted(rdir.rglob("*"))
            if p.suffix in (".out", ".jsonl", ".pplm")]


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def check_outputs(bench: Bench, rounds: list) -> dict:
    """Run every check on the last round's outputs; returns the primary
    quality figures and the list of failures."""
    from pplr.evaluate import map_cmc
    from pplr.pipeline import initial_model, project_bank

    problems = []
    last = rounds[-1]
    quality = {}

    last["digests"] = _digests(last["dir"])
    by_name = {}
    for r in rounds:
        for name, digest in r["digests"]:
            by_name.setdefault(name, []).append(digest)
    for name, digests in sorted(by_name.items()):
        problems += checks.check_identical(name, digests)

    # Epoch leg: final retrieval, report quality, labels, score form, gain.
    bank = bench.bank
    ids, cams = bank.gt_ids, bank.camera_ids
    if "model" in last and bench.last_clustering is not None:
        feats = project_bank(last["model"], bank).global_feats
        final = map_cmc(feats, feats, ids, ids, cams, cams)
        problems += checks.check_retrieval(final.map, final.cmc, feats, ids, cams)
        untrained = project_bank(initial_model(bench.epoch_cfg.pipeline, bank), bank).global_feats
        problems += checks.check_improves(final.map, checks.retrieval(untrained, ids, cams)[0])
        last_epoch = _read_jsonl(last["epoch_dir"] / "report.jsonl")[-1]["raw_quality"]
        labels = bench.last_clustering.labels.labels
        problems += checks.check_label_quality(
            last_epoch["accuracy"], last_epoch["pairwise_f"], labels, ids)
        problems += checks.check_canonical_labels(labels)
        problems += checks.check_score_form(
            bench.last_clustering.agreement.scores, bench.epoch_cfg.pipeline.k_agreement)
        quality["epoch"] = (final.map, last_epoch["pairwise_f"])
    else:
        problems.append("the epoch leg produced no model")

    # Command leg: labels, agreement, refinement, retrieval.
    rdir = last["cmd_dir"]
    if rdir is not None:
        cbank = checks.read_bank(bench.bank_path)
        k = bench.cmd_cfg.pipeline.k_agreement
        labels = np.array([r["label"] for r in _read_jsonl(rdir / "cluster.out")])
        scores = np.array([r["scores"] for r in _read_jsonl(rdir / "agree.out")])
        problems += checks.check_canonical_labels(labels)
        problems += checks.check_score_form(scores, k)
        problems += checks.check_agreement(scores, cbank["global"], cbank["parts"], k)
        for part, frac in enumerate(bench.cmd_cfg.synth.occlusion_fractions()):
            if frac == 1.0:
                problems += checks.check_occluded_part(scores, part, k)
        problems += checks.check_refine(
            _read_jsonl(rdir / "refine.out"), labels, scores, bench.cmd_cfg.refinement.beta)
        reported = json.loads((rdir / "eval.out").read_text("utf-8"))
        cmc = {int(key.split("@")[1]): v for key, v in reported.items() if key.startswith("CMC@")}
        problems += checks.check_retrieval(
            reported["mAP"], cmc, checks.unit_rows(cbank["global"]), cbank["gts"], cbank["cams"])
        quality["cmd"] = (reported["mAP"], checks.label_scores(labels, cbank["gts"])[1])
    else:
        problems.append("a label command failed; the command leg was not checked")
    return {"quality": quality.get(bench.spec["primary"]), "problems": problems}


def end_to_end(rounds: list, setup_s: float, self_rss_mb: float, quality) -> dict:
    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": (setup_s, "s"),
        "epoch_s": (median([t for r in rounds for t in r["epoch_s"]]), "s"),
        "peak_rss_mb": (max([self_rss_mb] + [r["child_rss_mb"] for r in rounds]), "MB"),
    }
    for cmd in COMMANDS:
        metrics[f"{cmd}_cmd_s"] = (median([t for r in rounds for t in r["cmd_s"][cmd]]), "s")
    final_map, pairwise_f = quality if quality else (0.0, 0.0)
    metrics["final_map"] = (final_map, "fraction")
    metrics["label_pairwise_f"] = (pairwise_f, "fraction")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pplr" / "__init__.py").is_file():
        log(f"no pplr sources under {SRC}; run from the root of a pplr checkout")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        bench = Bench(args.workload, args.seed, work, tracer)
        if tracer:
            tracer.uninstall()
        bench.spy_clustering()
        setup_s = process_age()
        log(f"{args.workload} seed {args.seed}: set-up {setup_s:.3f} s")
        rounds = run_rounds(bench, args.seconds, bool(args.trace))
        self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        log(f"{len(rounds)} rounds: " + ", ".join(f"{r['wall_s']:.2f} s" for r in rounds))
        outcome = check_outputs(bench, rounds)
        for problem in outcome["problems"]:
            log(f"CHECK FAILED: {problem}")
        if args.trace:
            metrics = layers.per_layer(rounds, bench.setup_spans)
            layers.write_trace(rounds, bench.setup_spans, OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = end_to_end(rounds, setup_s, self_rss_mb, outcome["quality"])
        result = {
            "correct": not outcome["problems"],
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
