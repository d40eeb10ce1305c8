"""tools/samebytes.py: the byte-identity check between two source trees."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "samebytes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("samebytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_lists_changed_and_missing_files(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for root in (base, head):
        (root / "bank").mkdir(parents=True)
        (root / "bank" / "same.jsonl").write_bytes(b"1\n")
    (base / "bank" / "changed.jsonl").write_bytes(b"a\n")
    (head / "bank" / "changed.jsonl").write_bytes(b"b\n")
    (base / "bank" / "gone.pplm").write_bytes(b"m")
    tool = load_tool()
    differ = tool.compare(tool.digests(base), tool.digests(head))
    assert [path for path, _, _ in differ] == ["bank/changed.jsonl", "bank/gone.pplm"]
    changed, gone = differ
    assert changed[1] != changed[2] and None not in changed
    assert gone[1] is not None and gone[2] is None


def test_head_against_itself_on_a_tiny_bank():
    # Two exports of the same commit, each running the whole command
    # matrix in its own interpreter, must write the same bytes.
    if shutil.which("git") is None or subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True
    ).returncode != 0:
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "HEAD", "--bank", "criterion10"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The second leg reruns cluster, agree and eval at two BLAS threads.
    assert proc.stdout.strip().endswith(
        "29 files compared over 1 banks; 0 differ\n"
        "3 files compared at 2 BLAS threads; 0 differ"
    )
