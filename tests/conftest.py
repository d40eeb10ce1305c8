# Makes the tests directory importable so shared oracles can be imported.

import pytest

from pplr import neighbors


@pytest.fixture(params=[float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def non_finite(request):
    """NaN, +inf and -inf: the numbers that a range check written as a
    comparison lets through or accepts."""
    return request.param


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of 9 rows, so that the banks of the block tests span at
    least 3 blocks and end on a ragged one, and chunks of 40 triples, so
    that the chunked k-reciprocal passes cut their work many times, also
    inside one column's support."""
    monkeypatch.setattr(neighbors, "_BLOCK_ROWS", 9)
    monkeypatch.setattr(neighbors, "_CHUNK_TRIPLES", 40)
    return 9
