import dataclasses

import numpy as np
import pytest

from pplr.cluster import DbscanParams, dbscan
from pplr.core import DataFormatError, FeatureBank, NumericalError, l2_normalize
from pplr.ingest import (
    _HEADER,
    MAGIC,
    VERSION,
    SynthConfig,
    generate_synthetic_bank,
    read_feature_bank,
    write_feature_bank,
)
from pplr.neighbors import pairwise_sq_euclidean


def tiny_bank(with_meta=True):
    rng = np.random.default_rng(11)
    return FeatureBank(
        global_feats=rng.standard_normal((2, 2)).astype(np.float32),
        part_feats=(rng.standard_normal((2, 2)).astype(np.float32),),
        camera_ids=np.array([0, 1]) if with_meta else None,
        gt_ids=np.array([5, 9]) if with_meta else None,
    )


class TestFileFormat:
    def test_byte_layout_sizes(self, tmp_path):
        # 20-byte header, then 2 matrices of 2x2 f32 (16 bytes each),
        # 2 u16 camera ids (4 bytes), 2 u32 gt ids (8 bytes).
        path = tmp_path / "bank.pplb"
        write_feature_bank(tiny_bank(), path)
        assert path.stat().st_size == 20 + 16 + 16 + 4 + 8
        write_feature_bank(tiny_bank(with_meta=False), path)
        assert path.stat().st_size == 20 + 32

    def test_roundtrip_bit_exact(self, tmp_path):
        bank = generate_synthetic_bank(SynthConfig(n_identities=4, samples_per_identity=3, dim=5))
        path = tmp_path / "bank.pplb"
        write_feature_bank(bank, path)
        back = read_feature_bank(path)
        assert back.global_feats.dtype == np.float32
        assert np.array_equal(back.global_feats, bank.global_feats)
        for a, b in zip(back.part_feats, bank.part_feats):
            assert np.array_equal(a, b)
        assert np.array_equal(back.camera_ids, bank.camera_ids)
        assert np.array_equal(back.gt_ids, bank.gt_ids)
        # Second generation pass writes the same bytes.
        path2 = tmp_path / "bank2.pplb"
        write_feature_bank(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bank.pplb"
        write_feature_bank(tiny_bank(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="bad magic"):
            read_feature_bank(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bank.pplb"
        write_feature_bank(tiny_bank(), path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="unsupported version"):
            read_feature_bank(path)

    @pytest.mark.parametrize("bit", [2, 3, 15])
    def test_unknown_flag_bit(self, tmp_path, bit):
        # Version 1 defines bit 0 (camera ids) and bit 1 (gt ids) only;
        # another bit changes no payload size, so only the check sees it.
        path = tmp_path / "bank.pplb"
        write_feature_bank(tiny_bank(), path)
        data = bytearray(path.read_bytes())
        flags = int.from_bytes(data[18:20], "little") | (1 << bit)
        data[18:20] = flags.to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match=f"unknown header flag bits {1 << bit:#06x}"):
            read_feature_bank(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bank.pplb"
        write_feature_bank(tiny_bank(), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="truncated payload"):
            read_feature_bank(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "bank.pplb"
        write_feature_bank(tiny_bank(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            read_feature_bank(path)

    @pytest.mark.parametrize(
        "n_parts, dim, message",
        [(0, 2, "0 part feature spaces"), (1, 0, "feature dimension 0")],
        ids=["no-parts", "zero-dim"],
    )
    def test_empty_header_shapes(self, tmp_path, n_parts, dim, message):
        # A zero payload of the size that the header declares.
        path = tmp_path / "bank.pplb"
        header = _HEADER.pack(MAGIC, VERSION, 6, dim, n_parts, 0)
        path.write_bytes(header + bytes((1 + n_parts) * 6 * dim * 4))
        with pytest.raises(DataFormatError, match=message):
            read_feature_bank(path)

    def test_nan_bank_cannot_reach_disk(self, tmp_path):
        # Construction itself rejects non-finite banks, so the writer can
        # never be handed one and no partial file appears.
        bad = np.ones((2, 2), dtype=np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(NumericalError):
            FeatureBank(global_feats=bad, part_feats=(np.ones((2, 2), dtype=np.float32),))
        assert list(tmp_path.iterdir()) == []


class TestGenerator:
    def test_deterministic(self):
        cfg = SynthConfig(n_identities=5, samples_per_identity=4, dim=8, seed=42)
        a = generate_synthetic_bank(cfg)
        b = generate_synthetic_bank(cfg)
        assert np.array_equal(a.global_feats, b.global_feats)
        for pa, pb in zip(a.part_feats, b.part_feats):
            assert np.array_equal(pa, pb)

    def test_zero_noise_limit(self):
        cfg = SynthConfig(
            n_identities=6,
            samples_per_identity=5,
            dim=16,
            cluster_spread=0.0,
            occlusion_fraction=0.0,
            camera_shift=0.0,
            seed=1,
        )
        bank = generate_synthetic_bank(cfg)
        for ident in range(cfg.n_identities):
            rows = bank.global_feats[bank.gt_ids == ident]
            assert np.array_equal(rows, np.repeat(rows[:1], rows.shape[0], axis=0))
        dist = pairwise_sq_euclidean(l2_normalize(bank.global_feats))
        labels = dbscan(dist, DbscanParams(eps=0.3, min_samples=4))
        assert labels.k_clusters == cfg.n_identities
        assert labels.n_outliers == 0

    def test_exact_occlusion_count(self):
        base = SynthConfig(n_identities=30, samples_per_identity=20, dim=8, seed=5)
        clean = generate_synthetic_bank(base)
        occluded = generate_synthetic_bank(
            dataclasses.replace(base, occlusion_fraction=0.2)
        )
        changed = 0
        for pc, po in zip(clean.part_feats, occluded.part_feats):
            changed += int(np.count_nonzero(np.any(pc != po, axis=1)))
        assert changed == round(0.2 * 600 * 3)

    def test_per_part_occlusion(self):
        base = SynthConfig(n_identities=10, samples_per_identity=6, dim=8, seed=5)
        clean = generate_synthetic_bank(base)
        occluded = generate_synthetic_bank(
            dataclasses.replace(base, occlusion_fraction=(0.0, 0.0, 1.0))
        )
        assert np.array_equal(clean.part_feats[0], occluded.part_feats[0])
        assert np.array_equal(clean.part_feats[1], occluded.part_feats[1])
        assert np.all(np.any(clean.part_feats[2] != occluded.part_feats[2], axis=1))

    def test_round_robin_cameras(self):
        bank = generate_synthetic_bank(SynthConfig(n_identities=3, samples_per_identity=4, n_cameras=3))
        assert np.array_equal(bank.camera_ids, np.arange(12) % 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(occlusion_fraction=1.4)
        with pytest.raises(ValueError):
            SynthConfig(n_identities=0)
        with pytest.raises(ValueError):
            SynthConfig(occlusion_fraction=(0.5, 0.5)).occlusion_fractions()


@pytest.mark.parametrize("seed", [-1, -(2**70)], ids=["minus-one", "below-int64"])
def test_synth_config_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SynthConfig(seed=seed)


@pytest.mark.parametrize("name", ["cluster_spread", "camera_shift", "n_identities", "dim"])
def test_synth_config_rejects_non_finite_numbers(name, non_finite):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        SynthConfig(**{name: non_finite})
