"""Command-line surface: config loading, overrides, and one subcommand per
pipeline stage.

    pplr simgen   --config c.json --out bank.pplb
    pplr cluster  --bank bank.pplb
    pplr agree    --bank bank.pplb
    pplr refine   --bank bank.pplb
    pplr train    --bank bank.pplb --out trace.jsonl
    pplr pipeline --bank bank.pplb --out report.jsonl
    pplr eval     --bank bank.pplb

Exit codes: 0 success, 2 config error (including a bank the command
cannot use, such as one where no query has a cross-camera positive for
``eval``), 3 data-format or file error, 4 runtime numerical error.

Every JSON-lines output, ``pipeline``'s report included, goes through one
writer, ``pipeline.write_lines``. It streams the lines to ``--out`` (or
stdout) as they are formed, never as one joined string. Each command
computes all its numbers before it opens the output, so a failed run
leaves no file. ``cluster`` and ``eval`` read only the global features,
so they normalize only those. Floats are written as ``json.dumps`` writes
them, but from a table: ``agree`` and ``refine`` convert one
``float.__repr__`` per distinct bit pattern of their output array and
gather those texts into the lines. On the 1800-sample, 6-part benchmark
bank ``refine`` writes 1.1 M floats, of which one in seven is distinct.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .cluster import DbscanParams
from .core import (
    ConfigError,
    DataFormatError,
    FeatureBank,
    NumericalError,
    l2_normalize,
    normalize_bank,
)
from .evaluate import map_cmc
from .ingest import SynthConfig, generate_synthetic_bank, read_feature_bank, write_feature_bank
from .objectives import LossWeights
from .pipeline import (
    PipelineConfig,
    agreement_scores,
    cluster_labels,
    clustered_part_predictions,
    clustering_stage,
    init_heads,
    initial_model,
    project_bank,
    run,
    save_model,
    training_stage,
    write_lines,
)
from .refine import RefinementConfig, aals_targets, effective_alpha, pglr_targets

# The dataclass defaults, except the CLI's own synthetic bank (occlusion
# and seed). The pipeline's nested sections are keys of their own.
DEFAULT_CONFIG: Dict[str, dict] = {
    "synth": asdict(SynthConfig(occlusion_fraction=0.2, seed=7)),
    "dbscan": asdict(DbscanParams()),
    "refinement": asdict(RefinementConfig()),
    "loss_weights": asdict(LossWeights()),
    "pipeline": {k: v for k, v in asdict(PipelineConfig()).items() if not isinstance(v, dict)},
    "paths": {"bank_in": None, "bank_out": None, "report_out": None, "model_out": None},
}

_NUMBER_OR_LIST = {"synth.occlusion_fraction"}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration for any subcommand."""

    synth: SynthConfig
    dbscan: DbscanParams
    refinement: RefinementConfig
    loss_weights: LossWeights
    pipeline: PipelineConfig
    paths: Dict[str, Optional[str]]
    resolved: dict

    def echo(self) -> dict:
        """The dict embedded into run artifacts for reproducibility."""
        return copy.deepcopy(self.resolved)


def _check_value(path: str, value, prototype) -> None:
    if path in _NUMBER_OR_LIST:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(value, list):
            ok = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        if not ok:
            raise ConfigError(f"{path}: expected number or list of numbers")
    elif value is None:
        if prototype is not None:
            raise ConfigError(f"{path}: null is not allowed")
    elif isinstance(prototype, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected bool, got {type(value).__name__}")
    elif isinstance(prototype, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected integer, got {type(value).__name__}")
    elif isinstance(prototype, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {type(value).__name__}")
    elif isinstance(prototype, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {type(value).__name__}")
    # Left: the null defaults, strings under paths and one number,
    # refinement.constant_alpha.
    elif path.startswith("paths."):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string or null")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected number or null")
    # A float flag parses "nan" and "inf", and JSON has NaN and Infinity;
    # no key takes a non-finite number.
    for number in value if isinstance(value, list) else [value]:
        if isinstance(number, float) and not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {number!r}")


def _merge(document: dict) -> dict:
    merged = copy.deepcopy(DEFAULT_CONFIG)
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    for section, content in document.items():
        if section not in merged:
            raise ConfigError(f"unknown key: {section}")
        if not isinstance(content, dict):
            raise ConfigError(f"{section}: expected an object")
        for key, value in content.items():
            if key not in merged[section]:
                raise ConfigError(f"unknown key: {section}.{key}")
            _check_value(f"{section}.{key}", value, DEFAULT_CONFIG[section][key])
            merged[section][key] = value
    return merged


def _build_section(section: str, factory, values: dict):
    try:
        return factory(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(
    config_path: Optional[str] = None, overrides: Optional[Dict[str, object]] = None
) -> RunConfig:
    """Defaults, then the config file, then flag overrides; validated.

    ``overrides`` maps dotted key paths (e.g. ``refinement.beta``) to
    values. Unknown keys, type mismatches, non-finite numbers and
    constraint violations raise :class:`ConfigError` naming the offending
    key path, as does a config file that is not UTF-8 JSON.
    """
    document: dict = {}
    if config_path is not None:
        try:
            text = Path(config_path).read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8: {exc}") from exc
        if text.strip():
            try:
                document = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    merged = _merge(document)
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in merged or key not in merged[section]:
            raise ConfigError(f"unknown key: {dotted}")
        _check_value(dotted, value, DEFAULT_CONFIG[section][key])
        merged[section][key] = value

    occ = merged["synth"]["occlusion_fraction"]
    synth = _build_section(
        "synth",
        SynthConfig,
        {**merged["synth"], "occlusion_fraction": tuple(occ) if isinstance(occ, list) else occ},
    )
    dbscan_params = _build_section("dbscan", DbscanParams, merged["dbscan"])
    refinement = _build_section("refinement", RefinementConfig, merged["refinement"])
    loss_weights = _build_section("loss_weights", LossWeights, merged["loss_weights"])
    pipeline_cfg = _build_section(
        "pipeline",
        PipelineConfig,
        {
            **merged["pipeline"],
            "dbscan": dbscan_params,
            "refinement": refinement,
            "loss_weights": loss_weights,
        },
    )
    return RunConfig(
        synth=synth,
        dbscan=dbscan_params,
        refinement=refinement,
        loss_weights=loss_weights,
        pipeline=pipeline_cfg,
        paths=dict(merged["paths"]),
        resolved=merged,
    )


_OVERRIDE_FLAGS = [
    # (flag, dotted path, type)
    ("--beta", "refinement.beta", float),
    ("--warmup-epochs", "refinement.aals_warmup_epochs", int),
    ("--constant-alpha", "refinement.constant_alpha", float),
    ("--eps", "dbscan.eps", float),
    ("--min-samples", "dbscan.min_samples", int),
    ("--tau", "loss_weights.tau", float),
    ("--lambda-cam", "loss_weights.lambda_cam", float),
    ("--hard-negatives", "loss_weights.n_hard_negatives", int),
    ("--epochs", "pipeline.epochs", int),
    ("--iters", "pipeline.iters_per_epoch", int),
    ("--batch-p", "pipeline.batch_p", int),
    ("--batch-k", "pipeline.batch_k", int),
    ("--lr", "pipeline.learning_rate", float),
    ("--k-agreement", "pipeline.k_agreement", int),
    ("--proj-dim", "pipeline.proj_dim", int),
    ("--mode", "pipeline.mode", str),
    ("--n-identities", "synth.n_identities", int),
    ("--samples-per-identity", "synth.samples_per_identity", int),
    ("--synth-dim", "synth.dim", int),
    ("--n-parts", "synth.n_parts", int),
    ("--n-cameras", "synth.n_cameras", int),
    ("--spread", "synth.cluster_spread", float),
    ("--occlusion", "synth.occlusion_fraction", float),
    ("--camera-shift", "synth.camera_shift", float),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pplr", description="Pseudo-label refinement engine over feature banks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simgen", "generate a synthetic feature bank"),
        ("cluster", "pseudo-labels from the re-ranked clustering distance"),
        ("agree", "cross agreement scores per sample and part"),
        ("refine", "refined soft labels (PGLR and AALS targets)"),
        ("train", "one training stage on fixed pseudo-labels"),
        ("pipeline", "full alternating clustering/training run"),
        ("eval", "cross-camera retrieval metrics on global features"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", help="output path (stdout where applicable)")
        if name != "simgen":
            p.add_argument("--bank", help="input feature-bank file")
        if name in ("train", "pipeline"):
            p.add_argument("--model-out", help="model blob output path")
        for flag, dotted, typ in _OVERRIDE_FLAGS:
            p.add_argument(flag, dest=dotted.replace(".", "__"), type=typ, default=None)
    return parser


def _collect_overrides(args) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for _, dotted, _ in _OVERRIDE_FLAGS:
        value = getattr(args, dotted.replace(".", "__"), None)
        if value is not None:
            overrides[dotted] = value
    if args.seed is not None:
        target = "synth.seed" if args.command == "simgen" else "pipeline.seed"
        overrides[target] = args.seed
    return overrides


def _load_bank(args, cfg: RunConfig) -> FeatureBank:
    path = args.bank or cfg.paths.get("bank_in")
    if not path:
        raise ConfigError("no input bank: pass --bank or set paths.bank_in")
    return read_feature_bank(path)


# json.dumps's spellings of the non-finite floats, keyed by float.__repr__.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> np.ndarray:
    """The text that ``json.dumps`` writes for each cell of ``values``, as
    an object array of the same shape.

    The table is keyed on the float64 bit pattern, not the value: 0.0 and
    -0.0 compare equal but print differently, and NaN equals nothing. Each
    distinct pattern costs one ``float.__repr__``.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    patterns, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    texts = [
        _JSON_NONFINITE.get(text, text)
        for text in map(float.__repr__, patterns.view(np.float64).tolist())
    ]
    return np.array(texts, dtype=object)[inverse.reshape(-1)].reshape(np.shape(values))


def _cmd_simgen(args, cfg: RunConfig) -> int:
    out = args.out or cfg.paths.get("bank_out")
    if not out:
        raise ConfigError("no output path: pass --out or set paths.bank_out")
    bank = generate_synthetic_bank(cfg.synth)
    write_feature_bank(bank, out)
    return 0


def _cmd_cluster(args, cfg: RunConfig) -> int:
    global_feats = l2_normalize(_load_bank(args, cfg).global_feats)
    labels = cluster_labels(global_feats, cfg.pipeline)
    write_lines(
        (f'{{"index": {i}, "label": {lab}}}\n' for i, lab in enumerate(labels.labels.tolist())),
        args.out,
    )
    return 0


def _cmd_agree(args, cfg: RunConfig) -> int:
    feats = normalize_bank(_load_bank(args, cfg))
    rows = _json_floats(agreement_scores(feats, cfg.pipeline).scores).tolist()
    write_lines(
        (f'{{"index": {i}, "scores": [{", ".join(row)}]}}\n' for i, row in enumerate(rows)),
        args.out,
    )
    return 0


def _refined_targets(feats: FeatureBank, cfg: RunConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The clustered rows and their targets from centroid-initialized
    heads, a (rows, 1 + n_parts, K) stack: the PGLR target, then each
    part's AALS target. The AALS weights are those of the first
    post-warm-up epoch."""
    result = clustering_stage(feats, cfg.pipeline)
    labels, agreement = result.labels, result.agreement
    k = labels.k_clusters
    if k == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 1 + feats.n_parts, 0))
    # Predictions come from centroid-initialized heads, mirroring the
    # state a training stage starts from.
    heads = init_heads(feats, labels)
    clustered, preds = clustered_part_predictions(feats, heads, labels)
    lab = labels.labels[clustered]
    ca = agreement.scores[clustered]
    pglr = pglr_targets(lab, k, preds, ca, cfg.refinement.beta)
    alphas = effective_alpha(ca, cfg.refinement.aals_warmup_epochs, cfg.refinement)
    aals_by_part = [aals_targets(lab, k, alphas[:, p]) for p in range(feats.n_parts)]
    return clustered, np.stack([pglr, *aals_by_part], axis=1)


def _refine_lines(n: int, clustered: np.ndarray, texts: np.ndarray) -> Iterator[str]:
    """One line per sample: the texts of its row of targets, or nulls for
    a sample in no cluster."""
    row_of = dict(zip(clustered.tolist(), range(len(clustered))))
    for i in range(n):
        row = row_of.get(i)
        if row is None:
            yield f'{{"index": {i}, "pglr": null, "aals": null}}\n'
            continue
        pglr, *aals = map(", ".join, texts[row].tolist())
        yield f'{{"index": {i}, "pglr": [{pglr}], "aals": [[{"], [".join(aals)}]]}}\n'


def _cmd_refine(args, cfg: RunConfig) -> int:
    """PGLR and AALS targets of every sample (see ``_refined_targets``)."""
    feats = normalize_bank(_load_bank(args, cfg))
    clustered, targets = _refined_targets(feats, cfg)
    texts = _json_floats(targets)
    write_lines(_refine_lines(feats.n_samples, clustered, texts), args.out)
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    out = args.out or cfg.paths.get("report_out")
    if not out:
        raise ConfigError("no output path: pass --out or set paths.report_out")
    bank = _load_bank(args, cfg)
    model = initial_model(cfg.pipeline, bank)
    feats = project_bank(model, bank)
    result = clustering_stage(feats, cfg.pipeline)
    heads = init_heads(feats, result.labels)
    trace = training_stage(
        model, bank, feats, heads, result.labels, result.agreement, cfg.pipeline
    )
    model_out = args.model_out or cfg.paths.get("model_out")
    if model_out:
        save_model(model, model_out)
    records = [{"config": cfg.echo()}, *trace.iterations, {"warnings": trace.warnings_dict()}]
    write_lines([json.dumps(r, sort_keys=True) + "\n" for r in records], out)
    return 0


def _cmd_pipeline(args, cfg: RunConfig) -> int:
    out = args.out or cfg.paths.get("report_out")
    if not out:
        raise ConfigError("no output path: pass --out or set paths.report_out")
    model_out = args.model_out or cfg.paths.get("model_out") or f"{out}.model"
    bank = _load_bank(args, cfg)
    run(cfg.pipeline, bank, report_path=out, model_path=model_out, config_echo=cfg.echo())
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    bank = _load_bank(args, cfg)
    if bank.gt_ids is None:
        raise DataFormatError("bank carries no gt ids; eval requires ground truth")
    if bank.camera_ids is None:
        raise DataFormatError("bank carries no camera ids; eval is cross-camera")
    global_feats = l2_normalize(bank.global_feats)
    result = map_cmc(
        global_feats,
        global_feats,
        bank.gt_ids,
        bank.gt_ids,
        bank.camera_ids,
        bank.camera_ids,
    )
    write_lines([json.dumps(result.to_json_dict(), sort_keys=True) + "\n"], args.out)
    return 0


_COMMANDS = {
    "simgen": _cmd_simgen,
    "cluster": _cmd_cluster,
    "agree": _cmd_agree,
    "refine": _cmd_refine,
    "train": _cmd_train,
    "pipeline": _cmd_pipeline,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, _collect_overrides(args))
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
