# Makes the tests directory importable so shared oracles can be imported.

import pytest

from pplr import neighbors


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of 9 rows, so that the banks of the block tests span at
    least 3 blocks and end on a ragged one, and chunks of 40 triples, so
    that the chunked k-reciprocal passes cut their work many times, also
    inside one column's support."""
    monkeypatch.setattr(neighbors, "_BLOCK_ROWS", 9)
    monkeypatch.setattr(neighbors, "_CHUNK_TRIPLES", 40)
    return 9
