"""Property tests for corrupt bank files: a truncated file, a header with
flag bits that version 1 does not define, and a NaN or infinity in any
feature space each make every command that reads a bank exit 3 with one
``data format error`` line on stderr and no output file."""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pplr.cli import main
from pplr.core import GLOBAL_SPACE, part_space
from pplr.ingest import _HEADER, FLAG_CAMERA_IDS, FLAG_GT_IDS, MAGIC, VERSION

COMMANDS = ("cluster", "agree", "refine", "eval", "train", "pipeline")
NON_FINITE = (float("nan"), -float("nan"), float("inf"), -float("inf"))


@st.composite
def banks(draw):
    """A valid bank file as (bytes, its section lengths in file order, n,
    dim, n_parts, flags): the header, the global and each part matrix,
    then the camera and gt ids that the flags declare."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 4))
    n_parts = draw(st.integers(1, 3))
    flags = draw(st.integers(0, FLAG_CAMERA_IDS | FLAG_GT_IDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sections = [_HEADER.pack(MAGIC, VERSION, n, dim, n_parts, flags)]
    sections += [rng.standard_normal(n * dim).astype("<f4").tobytes() for _ in range(1 + n_parts)]
    if flags & FLAG_CAMERA_IDS:
        sections.append(rng.integers(0, 4, n).astype("<u2").tobytes())
    if flags & FLAG_GT_IDS:
        sections.append(rng.integers(0, 9, n).astype("<u4").tobytes())
    return b"".join(sections), [len(s) for s in sections], n, dim, n_parts, flags


def _exits_3(command: str, data: bytes) -> str:
    """Run ``command`` on a bank file holding ``data``; check that it exits
    3, prints one line and writes no output, and return that line."""
    with tempfile.TemporaryDirectory() as tmp:
        bank, out = Path(tmp) / "bank.pplb", Path(tmp) / "out"
        bank.write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--bank", str(bank), "--out", str(out), "--epochs", "1"])
        assert code == 3
        assert not out.exists()
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data format error: "), lines
    return lines[0]


@settings(max_examples=40, deadline=None)
@given(banks(), st.sampled_from(COMMANDS), st.data())
def test_truncation_at_a_section_boundary_exits_3(bank, command, data):
    # Every proper prefix that ends at a section boundary, or one byte
    # short of one, from the empty file to the file less its last section.
    blob, sizes = bank[:2]
    boundaries = np.cumsum([0, *sizes[:-1]]).tolist()
    cut = max(0, data.draw(st.sampled_from(boundaries)) - data.draw(st.integers(0, 1)))
    line = _exits_3(command, blob[:cut])
    assert "truncated header" in line or "truncated payload" in line


@settings(max_examples=30, deadline=None)
@given(banks(), st.sampled_from(COMMANDS), st.integers(2, 15))
def test_unknown_flag_bit_exits_3(bank, command, bit):
    blob = bytearray(bank[0])
    flags = int.from_bytes(blob[18:20], "little") | (1 << bit)
    blob[18:20] = flags.to_bytes(2, "little")
    assert _exits_3(command, bytes(blob)).endswith(f"unknown header flag bits {1 << bit:#06x}")


@settings(max_examples=40, deadline=None)
@given(banks(), st.sampled_from(COMMANDS), st.sampled_from(NON_FINITE), st.data())
def test_non_finite_payload_exits_3(bank, command, value, data):
    # Also in a part space that cluster and eval never read.
    blob, _, n, dim, n_parts, _ = bank
    space = data.draw(st.integers(0, n_parts))
    cell = data.draw(st.integers(0, n * dim - 1))
    offset = _HEADER.size + (space * n * dim + cell) * 4
    blob = blob[:offset] + struct.pack("<f", value) + blob[offset + 4 :]
    name = GLOBAL_SPACE if space == 0 else part_space(space - 1)
    assert _exits_3(command, blob).endswith(f"non-finite entry in the {name} feature payload")
