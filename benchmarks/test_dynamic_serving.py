"""Dynamic serving: delta invalidation efficiency.

The claim that carries the ``repro.dynamic`` subsystem is gated here:
delta cache invalidation evicts a *minority* of the serving LRU per
generation — the L-hop-affected set of a small mutation batch is far
smaller than the flush-equivalent (the whole resident cache), so warm
entries keep serving across generations; transparency (bitwise-equal
logits vs a cold engine on the final graph) is asserted alongside so
the savings are not bought with staleness. Results land in
``BENCH_dynamic.json``, wired into the ``repro telemetry diff``
regression gate (self-diff asserted here).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_dataset, sample_query_vertices
from repro.dynamic import (
    DynamicGraph,
    DynamicServingEngine,
    poisson_mutations,
)
from repro.hardware import dgx_a100
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.serve import ServingConfig, ServingEngine, poisson_workload

pytestmark = pytest.mark.dynbench

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dynamic.json"

MAX_EVICTION_FRACTION = 0.5  # delta evictions must be a minority of flush
NUM_REQUESTS = 60
NUM_MUTATION_BATCHES = 4


def _merge_results(update: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_delta_invalidation_evicts_minority(once):
    """Zipf query + mutation stream: evicted/flush-equivalent < 0.5,
    with bitwise-transparent post-run queries."""

    def run():
        dataset = load_dataset("reddit", scale=0.002, learnable=True, seed=0)
        spec = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, 2)
        weights = init_weights(spec.layer_dims, seed=3)
        config = ServingConfig(
            machine=dgx_a100(), num_gpus=4, cache_entries=4 * dataset.n,
            num_pinned=8, max_batch_size=8,
        )
        dyn = DynamicServingEngine(
            DynamicGraph(dataset), weights, spec, config=config
        )
        requests = poisson_workload(
            dataset, NUM_REQUESTS, rate=2000.0, skew=1.0, seed=11
        )
        mutations = poisson_mutations(
            dataset, NUM_MUTATION_BATCHES, rate=400.0,
            edges_per_batch=10, skew=0.8, seed=13,
        )
        result = dyn.run(requests, mutations)
        fraction = result.total_delta_evicted / result.total_flush_equivalent

        snap = dyn.graph.snapshot_dataset()
        cold = ServingEngine(snap, weights, spec, config=config)
        targets = sample_query_vertices(snap, 30, skew=0.7, seed=17)
        transparent = bool(
            np.array_equal(dyn.engine.query(targets), cold.query(targets))
        )
        return {
            "generations": len(result.generations),
            "delta_evicted": result.total_delta_evicted,
            "flush_equivalent": result.total_flush_equivalent,
            "eviction_fraction": fraction,
            "per_generation_fraction": [
                g.eviction_fraction for g in result.generations
            ],
            "bitwise_transparent": transparent,
            "throughput_rps": result.summary["throughput_rps"],
            "latency_p99": result.summary["latency_p99"],
        }

    row = once(run)
    _merge_results(
        {
            "config": {
                "dataset": "reddit(scale=0.002, seed=0)",
                "requests": NUM_REQUESTS,
                "mutation_batches": NUM_MUTATION_BATCHES,
                "max_eviction_fraction": MAX_EVICTION_FRACTION,
            },
            "delta_invalidation": row,
        }
    )
    print()
    print(
        f"delta invalidation: {row['delta_evicted']}/"
        f"{row['flush_equivalent']} entries evicted over "
        f"{row['generations']} generations "
        f"({row['eviction_fraction'] * 100:.1f}% of a full flush), "
        f"transparent={row['bitwise_transparent']}"
    )
    assert row["bitwise_transparent"], (
        "delta invalidation must be indistinguishable from a cold cache"
    )
    assert row["eviction_fraction"] < MAX_EVICTION_FRACTION, (
        f"evicted {row['eviction_fraction']:.3f} of flush-equivalent, "
        f"gate is < {MAX_EVICTION_FRACTION}"
    )


def test_bench_passes_regression_gate(once):
    """The emitted BENCH file self-diffs clean through the gate."""

    def run():
        from repro.telemetry import diff_metrics, load_metrics

        assert RESULT_PATH.exists(), "dynamic bench must run first"
        metrics = load_metrics(RESULT_PATH)
        assert any("eviction_fraction" in name for name in metrics)
        return diff_metrics(metrics, metrics)

    result = once(run)
    assert result.passed
    assert result.compared > 0
