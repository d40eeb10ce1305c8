"""Smoke test: the quick demos run to completion as scripts.

``05_full_pipeline.py`` is left out; it trains for several epochs and
takes far longer than the others together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 4


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
