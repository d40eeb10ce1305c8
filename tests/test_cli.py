import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import refine_lines_oracle
from pplr import neighbors
from pplr.cli import (
    _OVERRIDE_FLAGS,
    DEFAULT_CONFIG,
    _build_parser,
    _collect_overrides,
    _json_floats,
    _refine_lines,
    _refined_targets,
    main,
    parse_config,
)
from pplr.core import ConfigError, FeatureBank, NumericalError, normalize_bank
from pplr.ingest import SynthConfig, generate_synthetic_bank, read_feature_bank, write_feature_bank
from pplr.pipeline import write_lines


def write_config(tmp_path, content, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(content) if isinstance(content, dict) else content)
    return str(path)


SMALL_EXPERIMENT = {
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
        "epochs": 2,
        "iters_per_epoch": 3,
        "batch_p": 4,
        "batch_k": 2,
        "proj_dim": 8,
        "k_agreement": 6,
        "seed": 1,
    },
}


class TestParseConfig:
    def test_empty_file_gives_paper_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, ""))
        assert cfg.refinement.beta == 0.5
        assert cfg.pipeline.k_agreement == 20
        assert cfg.pipeline.dbscan.eps == 0.6
        assert cfg.pipeline.dbscan.min_samples == 4
        assert cfg.pipeline.loss_weights.tau == 0.07
        assert cfg.pipeline.loss_weights.lambda_cam == 0.5
        assert cfg.pipeline.loss_weights.n_hard_negatives == 50
        assert cfg.refinement.aals_warmup_epochs == 5
        assert cfg.synth.n_parts == 3

    def test_missing_config_is_all_defaults(self):
        cfg = parse_config(None)
        assert cfg.resolved == DEFAULT_CONFIG

    def test_readme_config_block_lists_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        section = readme.split("Config sections", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULT_CONFIG

    def test_flag_override_beats_file(self, tmp_path):
        path = write_config(tmp_path, {"refinement": {"beta": 0.5}})
        cfg = parse_config(path, {"refinement.beta": 0.9})
        assert cfg.refinement.beta == 0.9
        assert cfg.resolved["refinement"]["beta"] == 0.9

    def test_constraint_violation_names_key_path(self, tmp_path):
        path = write_config(tmp_path, {"refinement": {"beta": 1.5}})
        with pytest.raises(ConfigError, match="refinement.*beta"):
            parse_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key: refinement.betta"):
            parse_config(write_config(tmp_path, {"refinement": {"betta": 0.5}}))
        with pytest.raises(ConfigError, match="unknown key: stuff"):
            parse_config(write_config(tmp_path, {"stuff": {}}))

    def test_type_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, {"dbscan": {"min_samples": 2.5}})
        with pytest.raises(ConfigError, match="dbscan.min_samples"):
            parse_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(write_config(tmp_path, "{not json"))

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"refinement": {"constant_alpha": Infinity}}', "refinement.constant_alpha"),
            ('{"synth": {"occlusion_fraction": NaN}}', "synth.occlusion_fraction"),
            ('{"synth": {"occlusion_fraction": [0.0, -Infinity, 0.0]}}', "synth.occlusion_fraction"),
        ],
        ids=["constant-alpha", "occlusion", "occlusion-element"],
    )
    def test_non_finite_number_rejected(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "flag, dotted, typ", _OVERRIDE_FLAGS, ids=[flag for flag, _, _ in _OVERRIDE_FLAGS]
    )
    def test_override_flag_sets_its_dotted_key(self, flag, dotted, typ):
        section, key = dotted.split(".")
        assert key in DEFAULT_CONFIG.get(section, {})
        default = DEFAULT_CONFIG[section][key]
        if typ is str:
            value = "baseline"
        elif default is None:
            value = 0.7
        else:
            value = default + 1 if typ is int else default / 2
        assert value != default
        args = _build_parser().parse_args(["cluster", flag, str(value)])
        assert _collect_overrides(args) == {dotted: value}
        resolved = parse_config(None, _collect_overrides(args)).resolved
        assert resolved == {**DEFAULT_CONFIG, section: {**DEFAULT_CONFIG[section], key: value}}

    @pytest.mark.parametrize("command, key", [("simgen", "synth.seed"), ("train", "pipeline.seed")])
    def test_seed_flag_sets_its_commands_key(self, command, key):
        args = _build_parser().parse_args([command, "--seed", "9", "--beta", "0.3"])
        assert _collect_overrides(args) == {key: 9, "refinement.beta": 0.3}
        section, name = key.split(".")
        assert parse_config(None, _collect_overrides(args)).resolved[section][name] == 9

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"dbscan": {"min_samples": 2.5}}, "dbscan.min_samples: expected integer, got float"),
            ({"refinement": {"betta": 0.5}}, "unknown key: refinement.betta"),
            ('{"loss_weights": {"tau": NaN}}',
             "loss_weights.tau: expected a finite number, got nan"),
        ],
        ids=["type-mismatch", "unknown-key", "non-finite"],
    )
    def test_file_fault_wins_over_flag_fault(self, tmp_path, capsys, document, message):
        path = write_config(tmp_path, document)
        with pytest.raises(ConfigError) as info:
            parse_config(path, {"pipeline.learning_rate": float("nan"), "pipeline.epochs": "x"})
        assert str(info.value) == message
        assert main(["simgen", "--config", path, "--lr", "nan", "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_per_part_occlusion_accepted(self, tmp_path):
        path = write_config(tmp_path, {"synth": {"occlusion_fraction": [0.0, 0.0, 1.0]}})
        cfg = parse_config(path)
        assert cfg.synth.occlusion_fractions() == (0.0, 0.0, 1.0)

    def test_nullable_constant_alpha(self, tmp_path):
        path = write_config(tmp_path, {"refinement": {"constant_alpha": 0.9}})
        assert parse_config(path).refinement.constant_alpha == 0.9
        assert parse_config(None, {"refinement.constant_alpha": 0.7}).refinement.constant_alpha == 0.7
        with pytest.raises(ConfigError, match="constant_alpha"):
            parse_config(write_config(tmp_path, {"refinement": {"constant_alpha": "high"}}))
        with pytest.raises(ConfigError, match="paths.bank_in"):
            parse_config(write_config(tmp_path, {"paths": {"bank_in": 3}}))


@pytest.fixture()
def small_bank(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bank")
    config = write_config(tmp, SMALL_EXPERIMENT)
    bank = tmp / "bank.pplb"
    assert main(["simgen", "--config", config, "--out", str(bank)]) == 0
    return config, str(bank)


class TestCliCommands:
    def test_simgen_deterministic(self, tmp_path, small_bank):
        config, bank = small_bank
        out2 = tmp_path / "again.pplb"
        assert main(["simgen", "--config", config, "--out", str(out2)]) == 0
        with open(bank, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_cluster_output(self, tmp_path, small_bank):
        config, bank = small_bank
        out = tmp_path / "labels.jsonl"
        assert main(["cluster", "--config", config, "--bank", bank, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 96
        assert records[0].keys() == {"index", "label"}
        assert all(r["label"] >= -1 for r in records)

    def test_agree_output(self, tmp_path, small_bank):
        config, bank = small_bank
        out = tmp_path / "agree.jsonl"
        assert main(["agree", "--config", config, "--bank", bank, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 96
        assert all(len(r["scores"]) == 3 for r in records)
        assert all(0.0 <= s <= 1.0 for r in records for s in r["scores"])

    def test_refine_output(self, tmp_path, small_bank):
        config, bank = small_bank
        out = tmp_path / "refine.jsonl"
        assert main(["refine", "--config", config, "--bank", bank, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 96
        refined = [r for r in records if r["pglr"] is not None]
        assert refined, "expected at least one clustered sample"
        k = len(refined[0]["pglr"])
        for r in refined:
            assert abs(sum(r["pglr"]) - 1.0) < 1e-6
            assert len(r["aals"]) == 3
            assert all(len(row) == k and abs(sum(row) - 1.0) < 1e-6 for row in r["aals"])

    def test_eval_output(self, capsys, small_bank):
        config, bank = small_bank
        assert main(["eval", "--config", config, "--bank", bank]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"mAP", "CMC@1", "CMC@5", "CMC@10"}
        assert 0.0 <= payload["mAP"] <= 1.0

    def test_train_writes_trace(self, tmp_path, small_bank):
        config, bank = small_bank
        out = tmp_path / "trace.jsonl"
        model = tmp_path / "model.pplm"
        assert main([
            "train", "--config", config, "--bank", bank,
            "--out", str(out), "--model-out", str(model),
        ]) == 0
        lines = out.read_text().splitlines()
        assert "config" in json.loads(lines[0])
        assert "warnings" in json.loads(lines[-1])
        assert model.exists()

    def test_pipeline_writes_report_and_model(self, tmp_path, small_bank):
        config, bank = small_bank
        out = tmp_path / "report.jsonl"
        assert main(["pipeline", "--config", config, "--bank", bank, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        echoed = json.loads(lines[0])["config"]
        assert echoed["pipeline"]["epochs"] == 2
        assert (tmp_path / "report.jsonl.model").exists()

    def test_seed_override_targets_subcommand(self, tmp_path, small_bank):
        config, bank = small_bank
        other = tmp_path / "other.pplb"
        assert main(["simgen", "--config", config, "--out", str(other), "--seed", "9"]) == 0
        with open(bank, "rb") as f1, open(other, "rb") as f2:
            assert f1.read() != f2.read()

    def test_rerun_from_embedded_config_reproduces_artifact(self, tmp_path, small_bank):
        config, bank = small_bank
        first = tmp_path / "first.jsonl"
        assert main(["pipeline", "--config", config, "--bank", bank, "--out", str(first)]) == 0
        embedded = json.loads(first.read_text().splitlines()[0])["config"]
        extracted = tmp_path / "extracted.json"
        extracted.write_text(json.dumps(embedded))
        second = tmp_path / "second.jsonl"
        assert main([
            "pipeline", "--config", str(extracted), "--bank", bank, "--out", str(second)
        ]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_json_floats_are_what_json_dumps_writes():
    # Cells whose texts are easy to get wrong: signed zeros, NaNs of both
    # signs and another payload, infinities, the smallest subnormal, both
    # sides of repr's switches to exponent notation, and neighbours one ulp
    # apart. Repeats make many cells share one table entry.
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    values = [
        0.0, -0.0, np.nan, -np.nan, nan_payload, np.inf, -np.inf,
        5e-324, -5e-324, np.finfo(np.float64).max, np.finfo(np.float64).tiny,
        1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
        1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
        0.1, np.nextafter(0.1, 1.0), 1.0 / 3.0,
    ]
    values = np.array(values * 3, dtype=np.float64).reshape(3, 7, 3)
    texts = _json_floats(values)
    assert texts.shape == values.shape
    for index in np.ndindex(values.shape):
        assert texts[index] == json.dumps(float(values[index])), index


def _bank_with_noise_at(tmp_path, noise, n_identities, per_identity):
    """A bank file whose other samples form tight identities, in order,
    and whose samples at ``noise`` are far from everything, in every space."""
    rng = np.random.default_rng(1)
    n, dim = n_identities * per_identity + len(noise), 16
    means = rng.standard_normal((4, n_identities, dim))
    spaces = rng.standard_normal((4, n, dim))
    members = np.setdiff1d(np.arange(n), noise)
    ids = np.repeat(np.arange(n_identities), per_identity)
    spaces[:, members] = means[:, ids] + 0.05 * spaces[:, members]
    path = tmp_path / "noise.pplb"
    write_feature_bank(
        FeatureBank(global_feats=spaces[0].astype(np.float32),
                    part_feats=tuple(spaces[1:].astype(np.float32))),
        path,
    )
    return str(path)


class TestStreamedOutput:
    @pytest.mark.parametrize(
        "eps", [None, 1e-9, 5.0], ids=["small-bank", "all-noise", "one-cluster"]
    )
    def test_refine_bytes_match_the_json_dumps_form(self, tmp_path, capsys, small_bank, eps):
        config, bank = small_bank
        flags = [] if eps is None else ["--eps", repr(eps)]
        out = tmp_path / "refine.jsonl"
        assert main(["refine", "--config", config, "--bank", bank, "--out", str(out), *flags]) == 0
        assert main(["refine", "--config", config, "--bank", bank, *flags]) == 0
        feats = normalize_bank(read_feature_bank(bank))
        cfg = parse_config(config, {} if eps is None else {"dbscan.eps": eps})
        clustered, targets = _refined_targets(feats, cfg)
        n_parts = targets.shape[1] - 1
        expected = refine_lines_oracle(
            feats.n_samples, clustered, targets[:, 0], [targets[:, 1 + p] for p in range(n_parts)]
        )
        assert out.read_text("utf-8") == expected
        assert capsys.readouterr().out == expected
        k = {None: None, 1e-9: 0, 5.0: 1}[eps]
        if k is not None:
            assert targets.shape[2] == k
            assert len(clustered) == (0 if k == 0 else feats.n_samples)

    @pytest.mark.parametrize("command", ["cluster", "agree", "eval"])
    def test_stdout_and_file_carry_json_dumps_lines(self, tmp_path, capsys, small_bank, command):
        config, bank = small_bank
        out = tmp_path / f"{command}.jsonl"
        assert main([command, "--config", config, "--bank", bank, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main([command, "--config", config, "--bank", bank]) == 0
        text = out.read_text("utf-8")
        assert capsys.readouterr().out == text
        lines = text.split("\n")
        assert lines.pop() == ""
        assert all(json.dumps(json.loads(line)) == line for line in lines)

    def test_failed_refine_leaves_no_file(self, tmp_path, small_bank, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("injected")

        config, bank = small_bank
        monkeypatch.setattr("pplr.cli.pglr_targets", fail)
        out = tmp_path / "refine.jsonl"
        assert main(["refine", "--config", config, "--bank", bank, "--out", str(out)]) == 4
        assert not out.exists()

    def test_refine_by_row_block_writes_the_whole_array_bytes(self, tmp_path, capsys, small_blocks):
        # 48 samples in 6 tight identities and 6 far ones that DBSCAN at
        # eps 0.1 leaves unclustered: the first, the last, two that sit
        # where the 9-row blocks of clustered rows meet, and one inside a
        # block. The 48 clustered rows end on a ragged block. A far
        # sample's nearest Jaccard distance is 0.109 or more, a clustered
        # sample's third nearest 0.059 or less.
        noise = [0, 10, 11, 21, 25, 53]
        bank = _bank_with_noise_at(tmp_path, noise, n_identities=6, per_identity=8)
        flags = ["--bank", bank, "--eps", "0.1"]
        out = tmp_path / "refine.jsonl"
        assert main(["refine", *flags, "--out", str(out)]) == 0
        assert main(["refine", *flags]) == 0
        feats = normalize_bank(read_feature_bank(bank))
        clustered, targets = _refined_targets(feats, parse_config(None, {"dbscan.eps": 0.1}))
        assert sorted(set(range(feats.n_samples)) - set(clustered.tolist())) == noise
        assert np.searchsorted(clustered, [10, 21]).tolist() == [small_blocks, 2 * small_blocks]
        # The reference formats the whole target stack with one table.
        rows = dict(zip(clustered.tolist(), _json_floats(targets).tolist()))
        expected = ""
        for i in range(feats.n_samples):
            if i not in rows:
                expected += f'{{"index": {i}, "pglr": null, "aals": null}}\n'
                continue
            pglr, *aals = map(", ".join, rows[i])
            expected += f'{{"index": {i}, "pglr": [{pglr}], "aals": [[{"], [".join(aals)}]]}}\n'
        assert out.read_text("utf-8") == expected
        assert capsys.readouterr().out == expected
        n_parts = targets.shape[1] - 1
        assert expected == refine_lines_oracle(
            feats.n_samples, clustered, targets[:, 0], [targets[:, 1 + p] for p in range(n_parts)]
        )

    def test_refine_formatting_peaks_below_the_targets(self, tmp_path, monkeypatch):
        # Formatting and writing hold one block's texts at a time. One
        # table over the whole stack held several times its bytes.
        bank = generate_synthetic_bank(
            SynthConfig(n_identities=20, samples_per_identity=20, dim=16, cluster_spread=0.5, seed=3)
        )
        feats = normalize_bank(bank)
        clustered, targets = _refined_targets(feats, parse_config(None))
        assert len(clustered) > 20 * 9 and targets.shape[2] > 10
        monkeypatch.setattr(neighbors, "_BLOCK_ROWS", 9)
        tracemalloc.start()
        try:
            write_lines(_refine_lines(feats.n_samples, clustered, targets), tmp_path / "r.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < targets.nbytes, (peak, targets.nbytes)


def _refuse(*args, **kwargs):
    raise AssertionError("this command must not compute this")


class TestCommandsComputeOnlyWhatTheyPrint:
    def test_cluster_and_eval_ignore_a_zero_part_row(self, tmp_path, small_bank):
        # Both read only the global features: a part row that cannot be
        # normalized changes nothing they write, while agree rejects it.
        config, bank_path = small_bank
        bank = read_feature_bank(bank_path)
        parts = [p.copy() for p in bank.part_feats]
        parts[1][5] = 0.0
        broken = str(tmp_path / "broken.pplb")
        write_feature_bank(
            FeatureBank(
                global_feats=bank.global_feats, part_feats=tuple(parts),
                camera_ids=bank.camera_ids, gt_ids=bank.gt_ids,
            ),
            broken,
        )
        for command in ("cluster", "eval"):
            outs = []
            for name, path in (("intact", bank_path), ("broken", broken)):
                out = tmp_path / f"{command}-{name}.jsonl"
                assert main([command, "--config", config, "--bank", path, "--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], command
        out = tmp_path / "agree.jsonl"
        assert main(["agree", "--config", config, "--bank", broken, "--out", str(out)]) == 4
        assert not out.exists()

    def test_cluster_builds_no_agreement(self, tmp_path, small_bank, monkeypatch):
        config, bank = small_bank
        monkeypatch.setattr("pplr.pipeline.topk_ranked_lists", _refuse)
        monkeypatch.setattr("pplr.pipeline.agreement_matrix", _refuse)
        out = tmp_path / "labels.jsonl"
        assert main(["cluster", "--config", config, "--bank", bank, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 96

    def test_agree_builds_no_labels(self, tmp_path, small_bank, monkeypatch):
        config, bank = small_bank
        monkeypatch.setattr("pplr.pipeline.k_reciprocal_jaccard", _refuse)
        monkeypatch.setattr("pplr.pipeline.dbscan", _refuse)
        out = tmp_path / "agree.jsonl"
        assert main(["agree", "--config", config, "--bank", bank, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 96


def _tiny_bank(tmp_path, n_identities, samples_per_identity, *flags):
    bank = tmp_path / f"tiny{n_identities * samples_per_identity}.pplb"
    assert main([
        "simgen", "--n-identities", str(n_identities),
        "--samples-per-identity", str(samples_per_identity), "--out", str(bank), *flags,
    ]) == 0
    return str(bank)


class TestTinyBanks:
    COMMANDS = ("cluster", "agree", "refine", "train", "pipeline")

    def test_fewer_samples_than_default_depths(self, tmp_path):
        # 15 samples: below both the clustering depth k1 = 30 and the
        # default k_agreement = 20, which are clamped to N - 1.
        bank = _tiny_bank(tmp_path, 3, 5)
        for cmd in self.COMMANDS:
            out = tmp_path / f"{cmd}.out"
            argv = [cmd, "--bank", bank, "--out", str(out), "--epochs", "1", "--iters", "2"]
            assert main(argv) == 0, cmd
        lines = (tmp_path / "agree.out").read_text().splitlines()
        scores = [json.loads(line)["scores"] for line in lines]
        assert len(scores) == 15
        assert all(0.0 <= v <= 1.0 for row in scores for v in row)

    def test_single_sample_is_a_config_error(self, tmp_path, capsys):
        bank = _tiny_bank(tmp_path, 1, 1)
        for cmd in self.COMMANDS:
            assert main([cmd, "--bank", bank, "--out", str(tmp_path / f"{cmd}.out")]) == 2, cmd
            assert "N=1" in capsys.readouterr().err

    def test_one_camera_bank_pipeline_reports_no_retrieval(self, tmp_path):
        # No query has a same-identity sample under another camera, so
        # retrieval cannot be scored; the run records that and goes on.
        bank = _tiny_bank(tmp_path, 1, 4, "--n-cameras", "1")
        out = tmp_path / "report.jsonl"
        assert main(["pipeline", "--bank", bank, "--out", str(out), "--epochs", "1"]) == 0
        epoch = json.loads(out.read_text().splitlines()[1])
        assert epoch["retrieval"] is None
        assert epoch["warnings"]["no_valid_query"] == 1
        assert epoch["raw_quality"] is not None


class TestDegenerateClusterings:
    """Every labelling command on the small bank when DBSCAN leaves every
    sample unclustered (eps 1e-9) or puts all of them in one cluster
    (eps 5: every Jaccard distance is at most 1)."""

    @pytest.fixture(params=[("1e-9", 0), ("5", 1)], ids=["all-noise", "one-cluster"])
    def run(self, request, tmp_path, small_bank):
        config, bank = small_bank
        eps, k = request.param

        def records(command, *flags):
            out = tmp_path / f"{command}.jsonl"
            argv = [command, "--config", config, "--bank", bank, "--eps", eps, "--out", str(out)]
            assert main([*argv, *flags]) == 0, command
            return [json.loads(line) for line in out.read_text().splitlines()]

        return records, k

    def test_cluster(self, run):
        records, k = run
        rows = records("cluster")
        assert [r["index"] for r in rows] == list(range(96))
        assert {r["label"] for r in rows} == ({0} if k else {-1})

    def test_agree(self, run):
        records, _ = run
        rows = records("agree")
        assert [r["index"] for r in rows] == list(range(96))
        assert all(len(r["scores"]) == 3 and all(0.0 <= s <= 1.0 for s in r["scores"]) for r in rows)

    def test_train(self, run, tmp_path):
        records, k = run
        lines = records("train", "--model-out", str(tmp_path / "m.pplm"))
        assert lines[0]["config"]["dbscan"]["eps"] in (1e-9, 5.0)
        assert lines[-1]["warnings"]["skipped_stage"] == 1 - k
        assert len(lines) == 2 + 3 * k
        assert all(r.keys() == {"aals", "cam", "pglr", "total", "triplet"} for r in lines[1:-1])
        assert (tmp_path / "m.pplm").exists()

    def test_pipeline(self, run, tmp_path):
        records, k = run
        lines = records("pipeline")
        assert len(lines) == 3 and "config" in lines[0]
        for epoch, line in enumerate(lines[1:]):
            assert (line["epoch"], line["k_clusters"], line["n_outliers"]) == (epoch, k, 96 * (1 - k))
            assert len(line["losses"]) == 3 * k
        assert (tmp_path / "pipeline.jsonl.model").exists()

    def test_eval(self, run):
        records, _ = run
        (payload,) = records("eval")
        assert set(payload) == {"mAP", "CMC@1", "CMC@5", "CMC@10"}
        assert 0.0 <= payload["mAP"] <= 1.0


def test_identical_row_bank(tmp_path):
    # Every distance is 0, so every neighbour list is a tie broken by index.
    feats = np.tile(np.arange(1.0, 5.0, dtype=np.float32), (12, 1))
    bank = FeatureBank(
        global_feats=feats,
        part_feats=(feats,) * 3,
        camera_ids=np.arange(12) % 3,
        gt_ids=np.zeros(12, dtype=np.int64),
    )
    path = str(tmp_path / "same.pplb")
    write_feature_bank(bank, path)

    def records(command, *flags):
        out = tmp_path / f"{command}.jsonl"
        assert main([command, "--bank", path, "--out", str(out), *flags]) == 0, command
        return [json.loads(line) for line in out.read_text().splitlines()]

    assert [r["label"] for r in records("cluster")] == [0] * 12
    assert [r["scores"] for r in records("agree")] == [[1.0] * 3] * 12
    refined = records("refine")
    assert [r["pglr"] for r in refined] == [[1.0]] * 12
    assert [r["aals"] for r in refined] == [[[1.0]] * 3] * 12
    assert records("eval") == [{"mAP": 1.0, "CMC@1": 1.0, "CMC@5": 1.0, "CMC@10": 1.0}]
    for command in ("train", "pipeline"):
        records(command, "--epochs", "2", "--iters", "3")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = write_config(tmp_path, {"refinement": {"beta": 2.0}})
        assert main(["simgen", "--config", bad, "--out", str(tmp_path / "x.pplb")]) == 2

    @pytest.mark.parametrize(
        "command, flags, config, key",
        [
            ("train", ("--lr", "nan"), None, "pipeline.learning_rate"),
            ("train", ("--lambda-cam", "nan"), None, "loss_weights.lambda_cam"),
            ("train", ("--tau", "inf"), None, "loss_weights.tau"),
            ("simgen", ("--spread", "inf"), None, "synth.cluster_spread"),
            ("train", (), '{"refinement": {"beta": NaN}}', "refinement.beta"),
            # An integer too large for a float once stopped both commands
            # with an OverflowError traceback.
            ("simgen", (), '{"synth": {"cluster_spread": 1%s}}' % ("0" * 400), "synth.cluster_spread"),
            ("train", (), '{"pipeline": {"learning_rate": 1%s}}' % ("0" * 400),
             "pipeline.learning_rate"),
        ],
        ids=["lr-nan", "lambda-cam-nan", "tau-inf", "spread-inf", "config-NaN",
             "spread-400-digits", "lr-400-digits"],
    )
    def test_non_finite_number_is_2(self, tmp_path, capsys, command, flags, config, key):
        # argparse's float() reads "nan" and "inf", and json.loads reads NaN,
        # so parsing alone lets them through.
        bank = str(tmp_path / "bank.pplb")
        assert main(["simgen", "--out", bank]) == 0
        out = tmp_path / "out"
        argv = [command, "--out", str(out), *flags]
        if command != "simgen":
            argv += ["--bank", bank]
        if config is not None:
            argv += ["--config", write_config(tmp_path, config)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: expected a finite number"), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, seed, section",
        [("simgen", "-1", "synth"), ("pipeline", "-1", "pipeline"),
         ("train", "-3", "pipeline"), ("cluster", "-1", "pipeline")],
    )
    def test_negative_seed_is_2(self, tmp_path, capsys, command, seed, section):
        # numpy rejects a negative seed only once it is used, and not at
        # all in a command that draws no random number.
        bank = str(tmp_path / "bank.pplb")
        assert main(["simgen", "--n-identities", "3", "--samples-per-identity", "4",
                     "--out", bank]) == 0
        out = tmp_path / "out"
        argv = [command, "--seed", seed, "--out", str(out)]
        if command != "simgen":
            argv += ["--bank", bank]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {section}: seed must be >= 0\n"
        assert not out.exists()

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["simgen", "--config", str(path), "--out", str(tmp_path / "x.pplb")]) == 2
        assert capsys.readouterr().err.startswith("config error: config is not UTF-8")

    def test_integer_past_the_digit_limit_is_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer of more than 4300 digits.
        config = write_config(tmp_path, '{"synth": {"seed": 1%s}}' % ("0" * 5000))
        out = tmp_path / "x.pplb"
        assert main(["simgen", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: config cannot be read: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, key",
        [
            ("train", ("--proj-dim", "1" + "0" * 20), "pipeline.proj_dim"),
            ("simgen", ("--n-identities", "1" + "0" * 20), "synth.n_identities"),
            ("simgen", ("--n-identities", "4000000000", "--samples-per-identity", "4000000000"),
             "synth: n_identities * samples_per_identity"),
        ],
        ids=["proj-dim", "n-identities", "n-samples-product"],
    )
    def test_size_that_is_no_array_dimension_is_2(self, tmp_path, capsys, command, flags, key):
        # numpy stopped both commands with "Maximum allowed dimension
        # exceeded", a numerical error.
        bank = str(tmp_path / "bank.pplb")
        assert main(["simgen", "--n-identities", "3", "--samples-per-identity", "4",
                     "--out", bank]) == 0
        out = tmp_path / "out"
        argv = [command, "--out", str(out), *flags]
        if command != "simgen":
            argv += ["--bank", bank]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}"), key
        assert not out.exists()

    def test_missing_output_is_2(self):
        assert main(["simgen"]) == 2

    def test_missing_bank_file_is_3(self, tmp_path):
        assert main(["cluster", "--bank", str(tmp_path / "nope.pplb")]) == 3

    def test_corrupt_bank_is_3(self, tmp_path):
        path = tmp_path / "bad.pplb"
        path.write_bytes(b"XXXXsomethingelse" + b"\x00" * 30)
        assert main(["cluster", "--bank", str(path)]) == 3

    @pytest.mark.parametrize(
        "n_parts, dim", [(0, 4), (1, 0)], ids=["no-parts", "zero-dim"]
    )
    def test_empty_header_shape_is_3(self, tmp_path, capsys, n_parts, dim):
        # A header may declare shapes that no bank can have: a malformed
        # file (3), not a numerical error (4).
        from pplr.ingest import _HEADER, MAGIC, VERSION

        path = tmp_path / "empty.pplb"
        header = _HEADER.pack(MAGIC, VERSION, 6, dim, n_parts, 0)
        path.write_bytes(header + bytes((1 + n_parts) * 6 * dim * 4))
        assert main(["cluster", "--bank", str(path)]) == 3
        assert "numerical error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "agree", "refine", "eval", "pipeline"])
    def test_unknown_flag_bit_is_3(self, tmp_path, capsys, command):
        bank = tmp_path / "bank.pplb"
        assert main(["simgen", "--n-identities", "3", "--samples-per-identity", "4",
                     "--out", str(bank)]) == 0
        data = bytearray(bank.read_bytes())
        data[18] |= 1 << 2
        bank.write_bytes(bytes(data))
        out = tmp_path / "out.jsonl"
        assert main([command, "--bank", str(bank), "--out", str(out), "--epochs", "1"]) == 3
        assert "unknown header flag bits" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_error_is_4(self, tmp_path):
        # A zero feature row is valid on disk but cannot be normalized.
        feats = np.ones((6, 4), dtype=np.float32)
        feats[2] = 0.0
        bank = FeatureBank(global_feats=feats, part_feats=(np.ones((6, 4), dtype=np.float32),))
        path = tmp_path / "zero.pplb"
        write_feature_bank(bank, path)
        assert main(["cluster", "--bank", str(path)]) == 4

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("pipeline", ("--epochs", "1", "--iters", "5", "--lr", "1e308")),
            ("pipeline", ("--epochs", "2", "--lr", "1e40")),
            ("pipeline", ("--epochs", "2", "--lr", "1e308")),
            ("train", ("--lr", "1e40")),
        ],
        ids=["epochs1-lr1e308", "epochs2-lr1e40", "epochs2-lr1e308", "train-lr1e40"],
    )
    def test_diverged_training_is_4(self, tmp_path, capsys, command, flags):
        # A diverged projection either gives a row a non-finite norm during
        # training or leaves values that do not fit the f32 model file.
        bank = str(tmp_path / "bank.pplb")
        assert main(["simgen", "--out", bank]) == 0
        out, model = tmp_path / "o.jsonl", tmp_path / "o.jsonl.model"
        argv = [command, "--bank", bank, "--out", str(out), "--model-out", str(model), *flags]
        assert main(argv) == 4
        assert not out.exists() and not model.exists()
        assert "numerical error" in capsys.readouterr().err

    def test_diverged_run_prints_only_the_error_line(self, tmp_path):
        # numpy's overflow warning from the projected row norms used to
        # precede pplr's own line on stderr.
        bank = str(tmp_path / "bank.pplb")
        assert main(["simgen", "--out", bank]) == 0
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["pipeline", "--bank", bank, "--out", str(tmp_path / "o.jsonl"),
                "--epochs", "1", "--iters", "5", "--lr", "1e308"]
        proc = subprocess.run(
            [sys.executable, "-m", "pplr.cli", *argv],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: "), proc.stderr

    def test_failed_allocation_is_4(self, tmp_path, capsys):
        # proj_dim fits np.intp, but the projection needs 466 TiB: more than
        # the address space, so numpy refuses it without allocating.
        bank = str(tmp_path / "bank.pplb")
        assert main(["simgen", "--out", bank]) == 0
        out = tmp_path / "t.jsonl"
        argv = ["train", "--bank", bank, "--out", str(out), "--proj-dim", "1000000000000"]
        assert main(argv) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("memory error: "), lines
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 4, "--n-cameras", "1")], ids=["one-sample", "one-camera"]
    )
    def test_eval_without_cross_camera_positive_is_2(self, tmp_path, capsys, shape):
        bank = _tiny_bank(tmp_path, *shape)
        assert main(["eval", "--bank", bank]) == 2
        assert "cross-camera positive" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["gt_ids", "camera_ids"])
    def test_eval_on_a_bank_without_ids_is_2(self, tmp_path, capsys, field):
        # A well-formed bank that eval cannot score: a config error, not a
        # data-format one.
        full = generate_synthetic_bank(SynthConfig(n_identities=4, samples_per_identity=4))
        bank = tmp_path / "bank.pplb"
        write_feature_bank(FeatureBank(full.global_feats, full.part_feats, **{
            name: getattr(full, name) for name in ("gt_ids", "camera_ids") if name != field
        }), bank)
        out = tmp_path / "eval.jsonl"
        assert main(["eval", "--bank", str(bank), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: bank carries no "), lines
        assert not out.exists()
