import dataclasses
import struct
import tempfile
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from pplr.objectives import ClassifierHead
from pplr.pipeline import ToyModel, load_model, save_model


def tiny_bank(with_meta=True):
    rng = np.random.default_rng(11)
    return FeatureBank(
        global_feats=rng.standard_normal((2, 2)).astype(np.float32),
        part_feats=(rng.standard_normal((2, 2)).astype(np.float32),),
        camera_ids=np.array([0, 1]) if with_meta else None,
        gt_ids=np.array([5, 9]) if with_meta else None,
    )


def tiny_model():
    rng = np.random.default_rng(12)
    heads = [ClassifierHead(weight=rng.standard_normal((4, 2))) for _ in range(2)]
    return ToyModel(projection=rng.standard_normal((3, 2)), heads=heads)


# Each file format: (writer, reader, the header fields after magic and
# version as (byte offset, width in bytes)).
FORMATS = {
    "bank": (write_feature_bank, read_feature_bank, [(8, 4), (12, 4), (16, 2), (18, 2)]),
    "model": (save_model, load_model, [(8, 4), (12, 4), (16, 4), (20, 4)]),
}


@pytest.fixture(params=sorted(FORMATS))
def written(request, tmp_path):
    """A small valid file of each format, and the format's reader."""
    write, read, _ = FORMATS[request.param]
    path = tmp_path / f"file.{request.param}"
    write(tiny_bank() if request.param == "bank" else tiny_model(), path)
    return path, read


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

    def test_bad_magic(self, written):
        path, read = written
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="bad magic"):
            read(path)

    def test_unsupported_version(self, written):
        path, read = written
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="unsupported version"):
            read(path)

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

    def test_truncated_header(self, written):
        path, read = written
        path.write_bytes(path.read_bytes()[:_HEADER.size - 1])
        with pytest.raises(DataFormatError, match="truncated header"):
            read(path)

    def test_truncated_payload(self, written):
        path, read = written
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="truncated payload"):
            read(path)

    def test_trailing_data(self, written):
        path, read = written
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            read(path)

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

    @pytest.mark.parametrize(
        "d_raw, d, n_heads, k",
        [(1, 0, 10**6, 1), (0, 2, 0, 0), (2, 2, 3, 0), (2, 2, 0, 5)],
        ids=["zero-d-a-million-heads", "zero-d_raw", "heads-of-no-class", "classes-no-heads"],
    )
    def test_model_header_shapes_that_no_model_has(self, tmp_path, d_raw, d, n_heads, k):
        # A payload of the size that the header declares. The u32 head
        # count allows 4.3e9 heads, so a header with d = 0 has to fail
        # before any head is built.
        path = tmp_path / "model.pplm"
        header = struct.pack("<4sIIIII", b"PPLM", 1, d_raw, d, n_heads, k)
        path.write_bytes(header + bytes((d_raw * d + n_heads * k * d) * 4))
        with pytest.raises(DataFormatError, match="header declares"):
            load_model(path)

    @pytest.mark.parametrize(
        "write, obj, message",
        [
            (write_feature_bank,
             FeatureBank(global_feats=np.zeros((2, 0)), part_feats=(np.zeros((2, 0)),)),
             "feature dimension 0"),
            (save_model,
             ToyModel(projection=np.ones((3, 2)), heads=[ClassifierHead(weight=np.ones((0, 2)))]),
             "1 heads of 0 classes"),
        ],
        ids=["bank-zero-dim", "model-head-of-no-class"],
    )
    def test_a_file_that_the_reader_rejects_is_not_written(self, tmp_path, write, obj, message):
        path = tmp_path / "file"
        with pytest.raises(DataFormatError, match=message):
            write(obj, path)
        assert not path.exists()

    def test_header_field_past_its_width_is_not_written(self, tmp_path):
        path = tmp_path / "bank.pplb"
        one = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(DataFormatError, match="n_parts must fit in u16"):
            write_feature_bank(FeatureBank(global_feats=one, part_feats=[one] * 65536), path)
        assert not path.exists()

    def test_bank_that_overflows_float32_is_not_written(self, tmp_path):
        # A float64 bank may hold values that f32 cannot: the writer
        # refuses it, as save_model refuses such a model, instead of
        # writing an infinity that the reader would reject.
        path = tmp_path / "bank.pplb"
        bank = FeatureBank(global_feats=np.full((2, 3), 1e39), part_feats=(np.zeros((2, 3)),))
        with pytest.raises(NumericalError, match="global feature values do not fit float32"):
            write_feature_bank(bank, path)
        assert not path.exists()

    def test_empty_bank_with_ids_round_trips(self, tmp_path):
        empty, no_ids = np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64)
        bank = FeatureBank(global_feats=empty, part_feats=(empty,), camera_ids=no_ids, gt_ids=no_ids)
        path = tmp_path / "bank.pplb"
        write_feature_bank(bank, path)
        assert path.stat().st_size == _HEADER.size
        back = read_feature_bank(path)
        assert back.global_feats.shape == (0, 3)
        assert back.camera_ids.shape == back.gt_ids.shape == (0,)

    def test_nan_bank_cannot_reach_disk(self, tmp_path):
        # Construction itself rejects non-finite banks, so the writer can
        # never be handed one and no partial file appears.
        bad = np.ones((2, 2), dtype=np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(NumericalError):
            FeatureBank(global_feats=bad, part_feats=(np.ones((2, 2), dtype=np.float32),))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("space, name", [(0, "global"), (1, "part0")])
    def test_non_finite_payload_is_a_format_error(self, tmp_path, non_finite, space, name):
        # The file is at fault, not the arithmetic: the reader rejects it
        # before any FeatureBank exists, naming the space.
        path = tmp_path / "bank.pplb"
        write_feature_bank(tiny_bank(), path)
        data = bytearray(path.read_bytes())
        offset = _HEADER.size + space * 16 + 12
        data[offset : offset + 4] = np.array([non_finite], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match=f"non-finite entry in the {name} feature"):
            read_feature_bank(path)


    def test_read_holds_the_file_once(self, tmp_path):
        # The 1800-sample, 6-part bank of perfbench's label workload. The
        # bank keeps the parsed views of the file's bytes: its peak is the
        # file plus one space's finiteness mask (1.05 x the file), where a
        # copy of every matrix would be about 2 x.
        cfg = SynthConfig(
            cluster_spread=0.7, n_identities=90, n_parts=6,
            occlusion_fraction=[0.2] * 5 + [1.0],
        )
        path = tmp_path / "bank.pplb"
        write_feature_bank(generate_synthetic_bank(cfg), path)
        tracemalloc.start()
        try:
            bank = read_feature_bank(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * path.stat().st_size
        assert not bank.global_feats.flags.writeable
        assert not any(p.flags.writeable for p in bank.part_feats)


@st.composite
def saved_objects(draw):
    """(format name, a bank or a model that the format holds): banks with
    N = 0 and with or without each id column, models with no head."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n, dim, n_parts = draw(st.integers(0, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        mats = [rng.standard_normal((n, dim)).astype(np.float32) for _ in range(1 + n_parts)]
        cams = rng.integers(0, 2**16, n) if draw(st.booleans()) else None
        gts = rng.integers(0, 2**32, n) if draw(st.booleans()) else None
        bank = FeatureBank(global_feats=mats[0], part_feats=mats[1:], camera_ids=cams, gt_ids=gts)
        return "bank", bank
    d_raw, d, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    heads = [ClassifierHead(weight=rng.standard_normal((k, d))) for _ in range(draw(st.integers(0, 3)))]
    return "model", ToyModel(projection=rng.standard_normal((d_raw, d)), heads=heads)


@settings(max_examples=150, deadline=None)
@given(saved_objects())
@example(("bank", FeatureBank(global_feats=np.zeros((0, 2)), part_feats=(np.zeros((0, 2)),))))
@example(("model", ToyModel(projection=np.ones((2, 3)))))
def test_write_read_write_gives_the_same_bytes(saved):
    name, obj = saved
    write, read, _ = FORMATS[name]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write(obj, first)
        write(read(first), second)
        assert first.read_bytes() == second.read_bytes()


# A reader that runs away on a corrupt header (say, a million empty heads)
# overruns this deadline.
@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(saved_objects(), st.sampled_from(["field", "truncate", "flip"]), st.data())
def test_a_corrupt_file_loads_or_is_a_format_error(saved, how, data):
    # One header field set to 0, 1, a small value or the field's maximum;
    # a cut at any length; or one byte flipped anywhere.
    name, obj = saved
    write, read, fields = FORMATS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(obj, path)
        blob = bytearray(path.read_bytes())
        if how == "field":
            offset, width = data.draw(st.sampled_from(fields))
            value = data.draw(st.sampled_from([0, 1, 256**width - 1]) | st.integers(2, 9))
            blob[offset : offset + width] = value.to_bytes(width, "little")
        elif how == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)) :]
        else:
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(blob))
        try:
            read(path)
        except DataFormatError:
            pass


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
