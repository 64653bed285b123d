"""Unit tests of cost-weighted row partitioning and partition previews.

``weighted_cost_partition`` is the cut ``dynamic.Rebalancer`` re-runs
when per-rank cost drifts.
"""

import numpy as np
import pytest

from repro.core.partitioner import preview_partition
from repro.datasets import load_dataset
from repro.errors import PartitionError
from repro.sparse.partition import (
    uniform_partition,
    weighted_cost_partition,
)


def _part_costs(part, costs):
    return [float(costs[lo:hi].sum()) for lo, hi in part]


def test_flat_costs_equal_capacities_is_uniform():
    costs = np.ones(100)
    part = weighted_cost_partition(costs, [1.0, 1.0, 1.0, 1.0])
    assert part.boundaries == uniform_partition(100, 4).boundaries


def test_skewed_costs_balance_per_part_cost():
    rng = np.random.default_rng(7)
    # zipf-ish skew: a few very expensive rows.
    costs = rng.pareto(1.5, size=2000) + 0.1
    part = weighted_cost_partition(costs, [1.0] * 4)
    shares = _part_costs(part, costs)
    mean = sum(shares) / 4
    assert max(shares) / mean < 1.35
    # the uniform split is much worse on the same cost vector.
    uni_shares = _part_costs(uniform_partition(2000, 4), costs)
    assert max(shares) / mean <= max(uni_shares) / mean


def test_capacities_shift_cost_toward_fast_parts():
    costs = np.ones(1000)
    part = weighted_cost_partition(costs, [3.0, 1.0])
    fast, slow = _part_costs(part, costs)
    assert fast == pytest.approx(750, abs=2)
    assert slow == pytest.approx(250, abs=2)


def test_every_part_nonempty_under_extreme_skew():
    costs = np.zeros(4)
    costs[0] = 1e9  # all the cost in the first row
    part = weighted_cost_partition(costs, [1.0] * 4)
    assert all(s >= 1 for s in part.sizes())
    assert part.total == 4


def test_weighted_partition_validation():
    with pytest.raises(PartitionError):
        weighted_cost_partition(np.ones((2, 2)), [1.0])
    with pytest.raises(PartitionError):
        weighted_cost_partition(np.array([1.0, -1.0]), [1.0])
    with pytest.raises(PartitionError):
        weighted_cost_partition(np.ones(4), [])
    with pytest.raises(PartitionError):
        weighted_cost_partition(np.ones(4), [1.0, 0.0])


def test_preview_partition_functional_and_symbolic():
    ds = load_dataset("cora", scale=0.1, learnable=True, seed=1)
    q = preview_partition(ds, 4)
    assert len(q["rows"]) == 4
    assert sum(q["rows"]) == ds.n
    assert q["nnz_imbalance"] >= 1.0
    sym = load_dataset("arxiv", symbolic=True)
    qs = preview_partition(sym, 8)
    assert qs["row_imbalance"] == pytest.approx(1.0, abs=0.01)

