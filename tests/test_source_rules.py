"""Three rules over the package's source.

No package module calls ``np.nonzero``, ``np.argpartition`` or
``np.lexsort``, as functions or as array methods.

Index pairs come from ``np.flatnonzero`` and ``np.divmod``, several times
faster than 2-D ``np.nonzero`` on a row block. Ranking goes through
``pplr.neighbors._ranked``, one stable path whatever the ties, in place of
an ``np.argpartition`` fast path with a tie fallback; a multi-key
``np.lexsort`` would be a second ranking routine.

No package module other than ``ingest.py`` uses ``struct``,
``np.frombuffer`` or ``.tobytes()``: bytes are packed and unpacked only by
``pplr.ingest.BinaryFormat``, the shared half of the bank and model codecs.

No package module other than ``core.py`` calls ``np.linalg.norm``: rows
are normalized only by ``pplr.core._normalize_rows``, which refuses a zero
or non-finite norm, so no second copy can drift from its checks.
"""

import ast

import pytest

from test_imports import MODULES

BANNED = {"nonzero", "argpartition", "lexsort"}


def banned_calls(source: str) -> list:
    """Calls of a banned name, as ``np.name(...)``, ``array.name(...)`` or a
    bare imported ``name(...)``, with their line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BANNED:
                found.append(f"{name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_banned_index_call(path):
    assert banned_calls(path.read_text("utf-8")) == []


def test_banned_call_is_reported():
    source = (
        "import numpy as np\n"
        "r, c = np.nonzero(m)  # np.nonzero in a comment is no call\n"
        "top = values.argpartition(2, axis=1)\n"
        "from numpy import lexsort\n"
        "order = lexsort((a, b))\n"
        "flat = np.flatnonzero(m)\n"
    )
    expected = ["argpartition (line 3)", "lexsort (line 5)", "nonzero (line 2)"]
    assert banned_calls(source) == expected


CODEC_NAMES = {"struct", "frombuffer", "tobytes"}


def codec_uses(source: str) -> list:
    """Imports, names and attributes among ``CODEC_NAMES``, with their line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None), *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in CODEC_NAMES]
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "ingest.py"], ids=lambda p: p.name
)
def test_only_ingest_packs_bytes(path):
    assert codec_uses(path.read_text("utf-8")) == []


def test_codec_use_is_reported():
    source = (
        "import struct as s\n"
        "from numpy import frombuffer  # struct in a comment is no use\n"
        "blob = array.tobytes()\n"
        "flat = np.frombuffer(blob, '<f4')\n"
        "size = struct.calcsize('<I')\n"
        "note = 'struct.pack in a string is no use either'\n"
    )
    expected = [
        "frombuffer (line 2)", "frombuffer (line 4)", "struct (line 1)", "struct (line 5)",
        "tobytes (line 3)",
    ]
    assert codec_uses(source) == expected


def norm_uses(source: str) -> list:
    """Uses of ``linalg.norm``, as an attribute or an import from a
    ``linalg`` module, with their line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [f"norm (line {node.lineno})" for a in node.names if a.name == "norm"]
        elif isinstance(node, ast.Attribute) and node.attr == "norm":
            value = node.value
            if getattr(value, "attr", getattr(value, "id", None)) == "linalg":
                found.append(f"norm (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_takes_row_norms(path):
    assert norm_uses(path.read_text("utf-8")) == []


def test_norm_use_is_reported():
    source = (
        "import numpy as np\n"
        "n = np.linalg.norm(x, axis=1)  # np.linalg.norm in a comment is no use\n"
        "from numpy.linalg import norm\n"
        "from numpy import linalg\n"
        "m = linalg.norm(y)\n"
        "ok = x.norm + np.sqrt((x * x).sum())\n"
    )
    assert norm_uses(source) == ["norm (line 2)", "norm (line 3)", "norm (line 5)"]
