"""No package module calls ``np.nonzero``, ``np.argpartition`` or
``np.lexsort``, as functions or as array methods.

Index pairs come from ``np.flatnonzero`` and ``np.divmod``, several times
faster than 2-D ``np.nonzero`` on a row block. Ranking goes through
``pplr.neighbors._ranked``, one stable path whatever the ties, in place of
an ``np.argpartition`` fast path with a tie fallback; a multi-key
``np.lexsort`` would be a second ranking routine.
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
