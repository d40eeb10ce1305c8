"""Feature-bank file format and the synthetic embedding generator.

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
from typing import Sequence, Union

import numpy as np

from .core import GLOBAL_SPACE, DataFormatError, FeatureBank, _require_finite, part_space

MAGIC = b"PPLB"
VERSION = 1
FLAG_CAMERA_IDS = 1
FLAG_GT_IDS = 2
_KNOWN_FLAGS = FLAG_CAMERA_IDS | FLAG_GT_IDS

_HEADER = struct.Struct("<4sIIIHH")


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


def _payload_size(n: int, dim: int, n_parts: int, flags: int) -> int:
    size = (1 + n_parts) * n * dim * 4
    if flags & FLAG_CAMERA_IDS:
        size += n * 2
    if flags & FLAG_GT_IDS:
        size += n * 4
    return size


def write_feature_bank(bank: FeatureBank, path) -> None:
    """Serialize ``bank`` to ``path``.

    The full payload is staged in memory first, so a validation failure
    never leaves a partial file behind.
    """
    n, dim, n_parts = bank.n_samples, bank.dim, bank.n_parts
    flags = 0
    if bank.camera_ids is not None:
        if bank.camera_ids.min() < 0 or bank.camera_ids.max() > 0xFFFF:
            raise DataFormatError("camera ids must fit in u16")
        flags |= FLAG_CAMERA_IDS
    if bank.gt_ids is not None:
        if bank.gt_ids.min() < 0 or bank.gt_ids.max() > 0xFFFFFFFF:
            raise DataFormatError("gt ids must fit in u32")
        flags |= FLAG_GT_IDS

    buf = bytearray()
    buf += _HEADER.pack(MAGIC, VERSION, n, dim, n_parts, flags)
    buf += np.ascontiguousarray(bank.global_feats, dtype="<f4").tobytes()
    for p in bank.part_feats:
        buf += np.ascontiguousarray(p, dtype="<f4").tobytes()
    if flags & FLAG_CAMERA_IDS:
        buf += bank.camera_ids.astype("<u2").tobytes()
    if flags & FLAG_GT_IDS:
        buf += bank.gt_ids.astype("<u4").tobytes()

    Path(path).write_bytes(buf)


def read_feature_bank(path) -> FeatureBank:
    """Parse a feature-bank file, distinguishing each corruption mode.

    Raises:
        DataFormatError: bad magic, unsupported version, flag bits that
            version 1 does not define, a header with no part space or zero
            dimensions, truncated payload or trailing bytes, or a NaN or
            infinity in any feature matrix, each with a distinct message.
            A non-finite entry is a format error whichever space holds it,
            also one that the calling command never reads.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise DataFormatError(f"truncated header: {len(data)} bytes")
    magic, version, n, dim, n_parts, flags = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DataFormatError(f"unsupported version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise DataFormatError(f"unknown header flag bits {flags & ~_KNOWN_FLAGS:#06x}")
    if n_parts == 0:
        raise DataFormatError("header declares 0 part feature spaces")
    if dim == 0:
        raise DataFormatError("header declares feature dimension 0")
    expected = _HEADER.size + _payload_size(n, dim, n_parts, flags)
    if len(data) < expected:
        raise DataFormatError(
            f"truncated payload: {len(data)} bytes, expected {expected}"
        )
    if len(data) > expected:
        raise DataFormatError(f"trailing data: {len(data) - expected} extra bytes")

    offset = _HEADER.size
    mats = []
    for space in [GLOBAL_SPACE, *map(part_space, range(n_parts))]:
        flat = np.frombuffer(data, dtype="<f4", count=n * dim, offset=offset)
        if not np.isfinite(flat).all():
            raise DataFormatError(f"non-finite entry in the {space} feature payload")
        mats.append(flat.reshape(n, dim))
        offset += n * dim * 4
    camera_ids = None
    if flags & FLAG_CAMERA_IDS:
        camera_ids = np.frombuffer(data, dtype="<u2", count=n, offset=offset).astype(
            np.int64
        )
        offset += n * 2
    gt_ids = None
    if flags & FLAG_GT_IDS:
        gt_ids = np.frombuffer(data, dtype="<u4", count=n, offset=offset).astype(
            np.int64
        )
    # The matrices are read-only views of ``data``, which nothing else
    # holds, so the bank keeps them instead of copying each once more.
    return FeatureBank._trusted(mats[0], mats[1:], camera_ids, gt_ids)


def _unit_rows(rng: np.random.Generator, shape) -> np.ndarray:
    vecs = rng.standard_normal(shape)
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


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

    means = _unit_rows(rng, (n_spaces, cfg.n_identities, dim))
    cam_bias = cfg.camera_shift * _unit_rows(rng, (n_spaces, cfg.n_cameras, dim))
    gt_ids = np.repeat(np.arange(cfg.n_identities), cfg.samples_per_identity)
    camera_ids = np.arange(n) % cfg.n_cameras

    # Noise scales by 1/sqrt(dim) so cluster_spread is the expected noise
    # magnitude relative to the unit-norm identity mean, independent of dim.
    # Each space is cast to float32 as it is drawn; occluded rows are cast
    # on assignment below, which rounds as astype does.
    spaces = []
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

    return FeatureBank._trusted(
        global_feats=spaces[0],
        part_feats=spaces[1:],
        camera_ids=camera_ids,
        gt_ids=gt_ids,
    )
