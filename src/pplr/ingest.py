"""Feature-bank file format, the synthetic embedding generator, and
:class:`BinaryFormat`, the shared half of the bank and model codecs.

Binary layout (little-endian):

    magic   4 bytes  b"PPLB"
    version u32      currently 1
    N       u32      number of samples
    dim     u32      feature dimensionality
    n_parts u16
    flags   u16      bit0 = camera ids present, bit1 = gt ids present
                     (any other bit set: DataFormatError)
    global  N*dim f32, row-major
    parts   n_parts blocks of N*dim f32
    cams    N u16    (iff bit0)
    gts     N u32    (iff bit1)

Samples are identified by their row index; the format carries no other id.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Union

import numpy as np

from .core import GLOBAL_SPACE, DataFormatError, FeatureBank, NumericalError, part_space
from .core import _normalize_rows, _require_finite


class BinaryFormat:
    """A 4-byte ``magic``, a u32 ``version``, unsigned integer ``fields`` (name
    to little-endian dtype), then a payload that starts with f32 matrices.
    ``payload_size(*fields)`` is its length in bytes; it raises DataFormatError
    for fields that no file may hold, in ``write`` as in ``unpack``."""

    def __init__(self, magic: bytes, version: int, fields: Dict[str, str], payload_size):
        self.magic, self.version, self.fields = magic, version, fields
        self.payload_size = payload_size
        self.header = struct.Struct("<4sI" + "".join(np.dtype(t).char for t in fields.values()))

    def unpack(self, data: bytes) -> list:
        """The header fields of ``data``, after checking its magic, version, fields and length."""
        if len(data) < self.header.size:
            raise DataFormatError(f"truncated header: {len(data)} bytes")
        magic, version, *fields = self.header.unpack_from(data)
        if magic != self.magic:
            raise DataFormatError(f"bad magic {magic!r}")
        if version != self.version:
            raise DataFormatError(f"unsupported version {version}")
        expected = self.header.size + self.payload_size(*fields)
        if len(data) < expected:
            raise DataFormatError(f"truncated payload: {len(data)} bytes, expected {expected}")
        if len(data) > expected:
            raise DataFormatError(f"trailing data: {len(data) - expected} extra bytes")
        return fields

    def decode(self, data: bytes, shapes: Dict[str, tuple]) -> list:
        """Read-only views of the f32 matrices ``shapes`` (name to shape) at the start of
        the payload of the unpacked ``data``; a NaN or infinity is a DataFormatError."""
        mats, offset = [], self.header.size
        for name, (rows, cols) in shapes.items():
            flat = np.frombuffer(data, "<f4", rows * cols, offset)
            if not np.isfinite(flat).all():
                raise DataFormatError(f"non-finite entry in the {name} payload")
            mats.append(flat.reshape(rows, cols))
            offset += flat.nbytes
        return mats

    def check(self, fields: Sequence[int], **columns) -> None:
        """Raise the DataFormatError that ``write`` raises for header ``fields`` or integer
        ``columns`` (name to values and dtype) that no file may hold."""
        ints = {**dict(zip(self.fields, zip(fields, self.fields.values()))), **columns}
        for name, (values, dtype) in ints.items():
            info = np.iinfo(dtype)
            if np.min(values, initial=0) < 0 or np.max(values, initial=0) > info.max:
                raise DataFormatError(f"{name} must fit in u{info.bits}")
        self.payload_size(*fields)

    def write(self, path, fields: Sequence[int], mats: Dict[str, np.ndarray], **columns) -> None:
        """Write the header of ``fields``, the ``mats`` (name to matrix) as f32, then the
        integer ``columns`` (name to values and dtype). Every check runs first, so a failed
        one writes nothing: ``check``, then the f32 range, a NumericalError."""
        self.check(fields, **columns)
        with np.errstate(over="ignore"):
            blobs = [np.ascontiguousarray(m, dtype="<f4") for m in mats.values()]
        for name, blob in zip(mats, blobs):
            if not np.isfinite(blob).all():
                raise NumericalError(f"{name} values do not fit float32")
        blobs += [np.asarray(values).astype(dtype) for values, dtype in columns.values()]
        packed = self.header.pack(self.magic, self.version, *fields)
        Path(path).write_bytes(b"".join([packed, *blobs]))


MAGIC = b"PPLB"
VERSION = 1
FLAG_CAMERA_IDS = 1
FLAG_GT_IDS = 2
_KNOWN_FLAGS = FLAG_CAMERA_IDS | FLAG_GT_IDS
# The id columns after the matrices, in file order: (flag, FeatureBank field, dtype).
_ID_COLUMNS = ((FLAG_CAMERA_IDS, "camera_ids", "<u2"), (FLAG_GT_IDS, "gt_ids", "<u4"))


def _bank_payload(n: int, dim: int, n_parts: int, flags: int) -> int:
    if flags & ~_KNOWN_FLAGS:
        raise DataFormatError(f"unknown header flag bits {flags & ~_KNOWN_FLAGS:#06x}")
    if n_parts == 0:
        raise DataFormatError("header declares 0 part feature spaces")
    if dim == 0:
        raise DataFormatError("header declares feature dimension 0")
    ids = sum(np.dtype(dtype).itemsize for flag, _, dtype in _ID_COLUMNS if flags & flag)
    return ((1 + n_parts) * dim * 4 + ids) * n


_BANK = BinaryFormat(
    MAGIC, VERSION, {"N": "<u4", "dim": "<u4", "n_parts": "<u2", "flags": "<u2"}, _bank_payload
)
_HEADER = _BANK.header


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic feature-bank generator.

    ``occlusion_fraction`` may be a single fraction (slots drawn uniformly
    over all N*n_parts part slots, exact count) or one fraction per part,
    which supports experiments that corrupt a single part space.
    """

    n_identities: int = 30
    samples_per_identity: int = 20
    dim: int = 64
    n_parts: int = 3
    n_cameras: int = 4
    cluster_spread: float = 0.9
    occlusion_fraction: Union[float, Sequence[float]] = 0.0
    camera_shift: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        counts = ("n_identities", "samples_per_identity", "dim", "n_parts", "n_cameras")
        _require_finite(self, *counts, "cluster_spread", "camera_shift")
        for name in counts:
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.cluster_spread < 0 or self.camera_shift < 0:
            raise ValueError("cluster_spread and camera_shift must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_samples > np.iinfo(np.intp).max:
            raise ValueError(
                f"n_identities * samples_per_identity = {self.n_samples} does not fit an array index"
            )
        for frac in self.occlusion_fractions():
            if not 0.0 <= frac <= 1.0:
                raise ValueError("occlusion_fraction must lie in [0, 1]")

    def occlusion_fractions(self) -> tuple:
        occ = self.occlusion_fraction
        if np.isscalar(occ):
            return (float(occ),) * self.n_parts
        fracs = tuple(float(f) for f in occ)
        if len(fracs) != self.n_parts:
            raise ValueError(
                f"occlusion_fraction needs {self.n_parts} entries, got {len(fracs)}"
            )
        return fracs

    @property
    def n_samples(self) -> int:
        return self.n_identities * self.samples_per_identity


def write_feature_bank(bank: FeatureBank, path) -> None:
    """Serialize ``bank`` to ``path``; a bank that the format cannot hold writes nothing."""
    ids = {field: (getattr(bank, field), dtype) for _, field, dtype in _ID_COLUMNS
           if getattr(bank, field) is not None}
    flags = sum(flag for flag, field, _ in _ID_COLUMNS if field in ids)
    mats = {f"{space} feature": m for space, m in bank.spaces()}
    _BANK.write(path, (bank.n_samples, bank.dim, bank.n_parts, flags), mats, **ids)


def read_feature_bank(path) -> FeatureBank:
    """Parse a feature-bank file. Each corruption that ``BinaryFormat`` or
    ``_bank_payload`` detects is a DataFormatError with its own message; a
    NaN or infinity is one in any space, also one that the calling command
    never reads."""
    data = Path(path).read_bytes()
    n, dim, n_parts, flags = _BANK.unpack(data)
    spaces = [GLOBAL_SPACE, *map(part_space, range(n_parts))]
    # The matrices are read-only views of ``data``, which nothing else
    # holds, so the bank keeps them instead of copying each once more.
    mats = _BANK.decode(data, {f"{space} feature": (n, dim) for space in spaces})
    offset, ids = _HEADER.size + len(spaces) * n * dim * 4, {}
    for flag, field, dtype in _ID_COLUMNS:
        if flags & flag:
            ids[field] = np.frombuffer(data, dtype, n, offset).astype(np.int64)
            offset += n * np.dtype(dtype).itemsize
    return FeatureBank._trusted(mats[0], mats[1:], **ids)


def _check_widths(cfg: SynthConfig) -> None:
    """Raise, before any drawing, the DataFormatError that writing the bank
    of ``cfg`` would raise for a header field or an id past its width."""
    distinct = {"camera_ids": min(cfg.n_cameras, cfg.n_samples), "gt_ids": cfg.n_identities}
    columns = {field: (distinct[field] - 1, dtype) for _, field, dtype in _ID_COLUMNS}
    _BANK.check((cfg.n_samples, cfg.dim, cfg.n_parts, _KNOWN_FLAGS), **columns)


def generate_synthetic_bank(cfg: SynthConfig) -> FeatureBank:
    """Draw a ground-truthed synthetic bank; pure function of the config.

    Each identity gets a distinct unit-sphere mean per feature space, so
    part spaces correlate with, but do not duplicate, the global space.
    Occluded part slots are replaced wholesale by identity-independent
    noise; the occluded slot count is exact, not probabilistic. Camera ids
    cycle round-robin over samples, and each camera adds a fixed bias
    vector of magnitude ``camera_shift`` per space.
    """
    rng = np.random.default_rng(cfg.seed)
    n, dim = cfg.n_samples, cfg.dim
    n_spaces = 1 + cfg.n_parts

    means = rng.standard_normal((n_spaces, cfg.n_identities, dim))
    cam_bias = rng.standard_normal((n_spaces, cfg.n_cameras, dim))
    for unit in (means, cam_bias):
        _normalize_rows(unit)
    cam_bias *= cfg.camera_shift
    gt_ids = np.repeat(np.arange(cfg.n_identities, dtype=np.int64), cfg.samples_per_identity)
    camera_ids = np.arange(n, dtype=np.int64) % cfg.n_cameras

    # Noise scales by 1/sqrt(dim) so cluster_spread is the expected noise
    # magnitude relative to the unit-norm identity mean, independent of dim.
    # Each space is cast to float32 as it is drawn; occluded rows are cast
    # on assignment below, which rounds as astype does. A spread near the
    # f32 limit overflows here; the check at the end reports it.
    spaces = []
    with np.errstate(over="ignore"):
        for s in range(n_spaces):
            feats = means[s][gt_ids] + cam_bias[s][camera_ids]
            if cfg.cluster_spread > 0:
                feats += cfg.cluster_spread * rng.standard_normal((n, dim)) / np.sqrt(dim)
            spaces.append(feats.astype(np.float32))

    fracs = cfg.occlusion_fractions()
    if np.isscalar(cfg.occlusion_fraction):
        # Uniform over the flat (part, sample) slot grid with an exact count.
        total = int(round(float(cfg.occlusion_fraction) * n * cfg.n_parts))
        chosen = rng.choice(n * cfg.n_parts, size=total, replace=False)
        rows_per_part = [np.sort(chosen[chosen // n == p] % n) for p in range(cfg.n_parts)]
    else:
        rows_per_part = [
            np.sort(rng.choice(n, size=int(round(f * n)), replace=False)) for f in fracs
        ]
    for p, rows in enumerate(rows_per_part):
        if rows.size:
            noise = rng.standard_normal((rows.size, dim)) / np.sqrt(dim)
            spaces[1 + p][rows] = noise

    for space_id, m in zip([GLOBAL_SPACE, *map(part_space, range(cfg.n_parts))], spaces):
        if not np.isfinite(m).all():
            raise NumericalError(f"non-finite entry in {space_id} features")
    return FeatureBank._trusted(spaces[0], spaces[1:], camera_ids, gt_ids)
