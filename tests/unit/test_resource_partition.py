"""Unit tests of partition previews."""

import pytest

from repro.core.partitioner import preview_partition
from repro.datasets import load_dataset


def test_preview_partition_functional_and_symbolic():
    ds = load_dataset("cora", scale=0.1, learnable=True, seed=1)
    q = preview_partition(ds, 4)
    assert len(q["rows"]) == 4
    assert sum(q["rows"]) == ds.n
    assert q["nnz_imbalance"] >= 1.0
    sym = load_dataset("arxiv", symbolic=True)
    qs = preview_partition(sym, 8)
    assert qs["row_imbalance"] == pytest.approx(1.0, abs=0.01)

