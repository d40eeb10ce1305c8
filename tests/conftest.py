# Makes the tests directory importable so shared oracles can be imported.

import pytest

from pplr import neighbors


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of 9 rows, so that the banks of the block tests span at
    least 3 blocks and end on a ragged one."""
    monkeypatch.setattr(neighbors, "_BLOCK_ROWS", 9)
    return 9
