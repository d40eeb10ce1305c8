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
cannot use, such as one without gt ids or camera ids, or where no query
has a cross-camera positive, for ``eval``), 3 data-format or file error
(a NaN or infinity in any space of a bank file included), 4 runtime
numerical error or an allocation that fails (a size that fits
``np.intp`` but not in memory).

Every JSON-lines output, ``pipeline``'s report included, goes through one
writer, ``pipeline.write_lines``. It streams the lines to ``--out`` (or
stdout) as they are formed, never as one joined string. Each command
computes all its numbers before it opens the output, so a failed run
leaves no file. ``cluster`` and ``eval`` read only the global features,
so they normalize only those. Floats are written as ``json.dumps`` writes
them, but from a table: ``agree`` converts one ``float.__repr__`` per
distinct bit pattern of its output array and gathers those texts into the
lines. ``refine`` does the same one block of 32 clustered rows at a time
(see :func:`pplr.neighbors._row_blocks`) and drops each block's texts once
its lines are written, so its peak memory is that of its clustering
phase. On the 1800-sample, 6-part benchmark bank it writes 1.1 M floats,
25 MB of text from 9 MB of float64 targets; writing them raised the peak
RSS of about 73 MB by 0.3 MB.
"""

from __future__ import annotations

import argparse
import copy
import itertools
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
from .neighbors import _row_blocks
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

_INDEX = np.iinfo(np.intp)

# The types a key takes, keyed by the type of its default, and their name.
_KINDS = {
    bool: ((bool,), "bool"), int: ((int,), "integer"),
    float: ((int, float), "number"), str: ((str,), "string"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration for any subcommand."""

    synth: SynthConfig
    pipeline: PipelineConfig
    resolved: dict

    @property
    def refinement(self) -> RefinementConfig:
        return self.pipeline.refinement

    def echo(self) -> dict:
        """The dict embedded into run artifacts for reproducibility."""
        return copy.deepcopy(self.resolved)


def _check_value(path: str, value, prototype) -> None:
    if path in _NUMBER_OR_LIST:
        numbers = value if isinstance(value, list) else [value]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in numbers):
            raise ConfigError(f"{path}: expected number or list of numbers")
    elif value is None:
        if prototype is not None:
            raise ConfigError(f"{path}: null is not allowed")
    elif type(prototype) in _KINDS:
        types, name = _KINDS[type(prototype)]
        # bool is an int: only a bool key takes one.
        if not isinstance(value, types) or isinstance(value, bool) != isinstance(prototype, bool):
            raise ConfigError(f"{path}: expected {name}, got {type(value).__name__}")
    # Left: the null defaults, strings under paths and one number,
    # refinement.constant_alpha.
    elif path.startswith("paths."):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string or null")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected number or null")
    if type(prototype) is int:
        # Every integer key is a count, a size or a seed: it must fit an
        # array index, or numpy fails on it later as a numerical error.
        if not _INDEX.min <= value <= _INDEX.max:
            raise ConfigError(f"{path}: expected an integer from {_INDEX.min} to {_INDEX.max}")
        return
    # A float flag parses "nan" and "inf", and JSON has NaN, Infinity and
    # integers of any size; a number key takes only a finite float.
    for number in value if isinstance(value, list) else [value]:
        try:
            finite = not isinstance(number, (int, float)) or math.isfinite(number)
        except OverflowError:
            too_large = "an integer too large for a float"
            raise ConfigError(f"{path}: expected a finite number, got {too_large}") from None
        if not finite:
            raise ConfigError(f"{path}: expected a finite number, got {number!r}")


def _document_values(document) -> Iterator[Tuple[str, object]]:
    """The config document's (dotted path, value) pairs, in its order."""
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    for section, content in document.items():
        if section not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown key: {section}")
        if not isinstance(content, dict):
            raise ConfigError(f"{section}: expected an object")
        for key, value in content.items():
            yield f"{section}.{key}", value


def _merge(document, overrides: Dict[str, object]) -> dict:
    """The defaults with the document's values, then the dotted-path
    overrides: each value is looked up and checked once, in that order, so
    a file fault wins over a flag fault."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for dotted, value in itertools.chain(_document_values(document), overrides.items()):
        section, _, key = dotted.partition(".")
        if key not in merged.get(section, {}):
            raise ConfigError(f"unknown key: {dotted}")
        _check_value(dotted, value, DEFAULT_CONFIG[section][key])
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
            except ValueError as exc:  # an integer past Python's digit limit
                raise ConfigError(f"config cannot be read: {exc}") from exc
    merged = _merge(document, overrides or {})

    occ = merged["synth"]["occlusion_fraction"]
    synth = _build_section(
        "synth",
        SynthConfig,
        {**merged["synth"], "occlusion_fraction": tuple(occ) if isinstance(occ, list) else occ},
    )
    factories = dict(dbscan=DbscanParams, refinement=RefinementConfig, loss_weights=LossWeights)
    nested = {name: _build_section(name, f, merged[name]) for name, f in factories.items()}
    pipeline_cfg = _build_section("pipeline", PipelineConfig, {**merged["pipeline"], **nested})
    return RunConfig(synth=synth, pipeline=pipeline_cfg, resolved=merged)


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
        seed_key = "synth.seed" if name == "simgen" else "pipeline.seed"
        p.add_argument("--seed", type=int, dest=seed_key, metavar="SEED", help="seed override")
        p.add_argument("--out", help="output path (stdout where applicable)")
        if name != "simgen":
            p.add_argument("--bank", help="input feature-bank file")
        if name in ("train", "pipeline"):
            p.add_argument("--model-out", help="model blob output path")
        # The usage line names each value SECTION__KEY.
        for flag, dotted, typ in _OVERRIDE_FLAGS:
            p.add_argument(flag, dest=dotted, type=typ, metavar=dotted.replace(".", "__").upper())
    return parser


def _collect_overrides(args) -> Dict[str, object]:
    """The dotted key of every override flag given, ``--seed`` included."""
    return {dest: value for dest, value in vars(args).items() if "." in dest and value is not None}


def _path(given: Optional[str], cfg: RunConfig, key: str, missing: str) -> str:
    """``given``, a flag's value, else ``paths.<key>``; a ConfigError when
    neither is set."""
    path = given or cfg.resolved["paths"][key]
    if not path:
        raise ConfigError(f"{missing} or set paths.{key}")
    return path


def _load_bank(args, cfg: RunConfig) -> FeatureBank:
    return read_feature_bank(_path(args.bank, cfg, "bank_in", "no input bank: pass --bank"))


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
    out = _path(args.out, cfg, "bank_out", "no output path: pass --out")
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


def _null_lines(start: int, stop: int) -> Iterator[str]:
    """The lines of samples ``start..stop - 1``, each in no cluster."""
    return (f'{{"index": {i}, "pglr": null, "aals": null}}\n' for i in range(start, stop))


def _refine_lines(n: int, clustered: np.ndarray, targets: np.ndarray) -> Iterator[str]:
    """One line per sample: the texts of its row of targets, or nulls for
    a sample in no cluster. ``targets[row]`` belongs to sample
    ``clustered[row]``, ascending. The texts are formatted one row block
    at a time, and a block's texts are dropped before the next block is
    formatted."""
    done = 0  # samples whose lines are written
    for blk in _row_blocks(len(clustered)):
        for i, row in zip(clustered[blk].tolist(), _json_floats(targets[blk]).tolist()):
            yield from _null_lines(done, i)
            pglr, *aals = map(", ".join, row)
            yield f'{{"index": {i}, "pglr": [{pglr}], "aals": [[{"], [".join(aals)}]]}}\n'
            done = i + 1
    yield from _null_lines(done, n)


def _cmd_refine(args, cfg: RunConfig) -> int:
    """PGLR and AALS targets of every sample (see ``_refined_targets``)."""
    feats = normalize_bank(_load_bank(args, cfg))
    clustered, targets = _refined_targets(feats, cfg)
    write_lines(_refine_lines(feats.n_samples, clustered, targets), args.out)
    return 0


def _cmd_train(args, cfg: RunConfig) -> int:
    out = _path(args.out, cfg, "report_out", "no output path: pass --out")
    bank = _load_bank(args, cfg)
    model = initial_model(cfg.pipeline, bank)
    feats = project_bank(model, bank)
    result = clustering_stage(feats, cfg.pipeline)
    heads = init_heads(feats, result.labels)
    trace = training_stage(
        model, bank, feats, heads, result.labels, result.agreement, cfg.pipeline
    )
    model_out = args.model_out or cfg.resolved["paths"]["model_out"]
    if model_out:
        save_model(model, model_out)
    records = [{"config": cfg.echo()}, *trace.iterations, {"warnings": trace.warnings_dict()}]
    write_lines([json.dumps(r, sort_keys=True) + "\n" for r in records], out)
    return 0


def _cmd_pipeline(args, cfg: RunConfig) -> int:
    out = _path(args.out, cfg, "report_out", "no output path: pass --out")
    model_out = args.model_out or cfg.resolved["paths"]["model_out"] or f"{out}.model"
    bank = _load_bank(args, cfg)
    run(cfg.pipeline, bank, report_path=out, model_path=model_out, config_echo=cfg.echo())
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    bank = _load_bank(args, cfg)
    if bank.gt_ids is None:
        raise ConfigError("bank carries no gt ids; eval requires ground truth")
    if bank.camera_ids is None:
        raise ConfigError("bank carries no camera ids; eval is cross-camera")
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
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
