import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pplr.cli import DEFAULT_CONFIG, main, parse_config
from pplr.core import ConfigError


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
        assert cfg.dbscan.eps == 0.6
        assert cfg.dbscan.min_samples == 4
        assert cfg.loss_weights.tau == 0.07
        assert cfg.loss_weights.lambda_cam == 0.5
        assert cfg.loss_weights.n_hard_negatives == 50
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


def _refuse(*args, **kwargs):
    raise AssertionError("this command must not compute this")


class TestCommandsComputeOnlyWhatTheyPrint:
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


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = write_config(tmp_path, {"refinement": {"beta": 2.0}})
        assert main(["simgen", "--config", bad, "--out", str(tmp_path / "x.pplb")]) == 2

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

    def test_numerical_error_is_4(self, tmp_path):
        # A zero feature row is valid on disk but cannot be normalized.
        from pplr.core import FeatureBank
        from pplr.ingest import write_feature_bank

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

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 4, "--n-cameras", "1")], ids=["one-sample", "one-camera"]
    )
    def test_eval_without_cross_camera_positive_is_2(self, tmp_path, capsys, shape):
        bank = _tiny_bank(tmp_path, *shape)
        assert main(["eval", "--bank", bank]) == 2
        assert "cross-camera positive" in capsys.readouterr().err
