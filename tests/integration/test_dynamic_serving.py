"""Integration: mixed query/mutation serving (repro.dynamic)."""

import hashlib

import numpy as np
import pytest

from repro.cache import CacheStats
from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset, sample_query_vertices
from repro.dynamic import (
    DynamicGraph,
    DynamicServingEngine,
    poisson_mutations,
)
from repro.errors import ConfigurationError
from repro.hardware import dgx_a100
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.serve import ServingConfig, ServingEngine, poisson_workload
from repro.telemetry import Telemetry

pytestmark = pytest.mark.dynamic


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("reddit", scale=0.002, learnable=True, seed=0)


def serving_config(n, **overrides):
    defaults = dict(
        machine=dgx_a100(),
        num_gpus=4,
        cache_entries=4 * n,
        num_pinned=8,
        max_batch_size=8,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


def build_dynamic(dataset, num_layers=2, seed=3, **cfg):
    spec = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, num_layers)
    weights = init_weights(spec.layer_dims, seed=seed)
    graph = DynamicGraph(dataset)
    dyn = DynamicServingEngine(
        graph, weights, spec,
        config=serving_config(dataset.n, **cfg),
    )
    return dyn, spec, weights


class TestDeltaInvalidationTransparency:
    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_warm_queries_bitwise_match_cold_engine(self, dataset,
                                                    num_layers):
        """After mutations, the delta-invalidated warm cache must be
        indistinguishable from a cold engine built on the final graph."""
        dyn, spec, weights = build_dynamic(dataset, num_layers=num_layers)
        requests = poisson_workload(dataset, 40, rate=2000.0, skew=1.0,
                                    seed=11)
        mutations = poisson_mutations(dataset, 3, rate=400.0,
                                      edges_per_batch=10, skew=0.8, seed=13)
        result = dyn.run(requests, mutations)
        assert len(result.generations) == 3
        # the warm cache was exercised and only partially evicted
        assert result.total_flush_equivalent > 0
        assert result.total_delta_evicted < result.total_flush_equivalent

        snap = dyn.graph.snapshot_dataset()
        cold = ServingEngine(
            snap, weights, spec, config=serving_config(dataset.n)
        )
        targets = sample_query_vertices(snap, 30, skew=0.7, seed=17)
        warm_logits = dyn.engine.query(targets)
        cold_logits = cold.query(targets)
        assert np.array_equal(warm_logits, cold_logits)

    def test_incremental_matrices_bitwise_match_scratch(self, dataset):
        dyn, _, _ = build_dynamic(dataset)
        for batch in poisson_mutations(dataset, 3, rate=400.0,
                                       edges_per_batch=10, skew=0.8, seed=13):
            dyn.apply(batch)
            dyn.commit(arrival=batch.arrival)
            adj, a_hat_t = dyn.graph.scratch_rebuild()
            assert dyn.graph.a_hat_t.equals(a_hat_t)
            assert dyn.engine.a_hat_t is dyn.graph.a_hat_t


class TestMixedRun:
    def test_run_serves_everything_and_reports_generations(self, dataset):
        dyn, _, _ = build_dynamic(dataset)
        requests = poisson_workload(dataset, 30, rate=1500.0, skew=0.5,
                                    seed=5)
        mutations = poisson_mutations(dataset, 4, rate=300.0,
                                      edges_per_batch=6, skew=0.5, seed=7)
        result = dyn.run(requests, mutations)
        assert set(result.logits) == {r.request_id for r in requests}
        assert len(result.generations) == 4
        gens = [g.generation for g in result.generations]
        assert gens == sorted(gens) and len(set(gens)) == 4
        arrivals = [g.arrival for g in result.generations]
        assert arrivals == sorted(arrivals)
        for g in result.generations:
            assert g.mutations_applied > 0
            assert g.rows_rebuilt > 0
            assert 0.0 <= g.eviction_fraction <= 1.0
        assert result.summary["num_requests"] == len(requests)

    def test_empty_request_stream_rejected(self, dataset):
        dyn, _, _ = build_dynamic(dataset)
        with pytest.raises(ConfigurationError):
            dyn.run([], poisson_mutations(dataset, 1, rate=10.0, seed=0))


class TestServingPinnedExactly:
    """A small mixed run, pinned to the last number.

    The cache is a quarter of the entries the run could fill, so LRU
    eviction fires on most batches, 16 vertices are pinned, and a weight
    bump between the two runs makes stale drops. The logit digests were
    recorded before the embedding cache moved from an ``OrderedDict``
    to arrays, and held when the batcher became work-conserving; the
    latencies and cache counters were re-recorded then (smaller batches
    change what each lookup sees). Any change to what the cache holds,
    evicts or returns moves at least one of them.
    """

    def test_latency_stats_evictions_and_logits(self, dataset):
        spec = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, 2)
        weights = init_weights(spec.layer_dims, seed=3)
        dyn = DynamicServingEngine(
            DynamicGraph(dataset), weights, spec,
            config=serving_config(dataset.n, cache_entries=dataset.n // 2,
                                  num_pinned=16),
        )
        first = dyn.run(
            poisson_workload(dataset, 300, rate=2000.0, skew=1.0, seed=11),
            poisson_mutations(dataset, 4, rate=40.0, edges_per_batch=10,
                              skew=0.8, seed=13),
        )
        dyn.engine.update_weights([w * np.float32(0.5) for w in weights])
        second = dyn.run(
            poisson_workload(dataset, 200, rate=2000.0, skew=1.0, seed=12),
            poisson_mutations(dataset, 3, rate=40.0, edges_per_batch=10,
                              skew=0.8, seed=14),
        )

        def digest(logits):
            h = hashlib.sha256()
            for rid in sorted(logits):
                h.update(np.ascontiguousarray(logits[rid]).tobytes())
            return h.hexdigest()

        assert first.summary["latency_mean"] == 1.951526673301574e-05
        assert first.summary["latency_p99"] == 3.46007547153554e-05
        assert second.summary["latency_mean"] == 0.04882595888893552
        assert second.summary["latency_p99"] == 0.1596339019565366
        assert dyn.engine.cache.stats == CacheStats(
            hits=12963, misses=15023, insertions=15023, evictions=14438,
            stale_drops=215, invalidations=137,
        )
        assert [g.cache_entries_delta_evicted for g in dyn.generations] == [
            18, 15, 15, 27, 27, 18, 17,
        ]
        assert digest(first.logits) == (
            "1263b5596e481019bdcfce92fad0621846dc86644f22216df4a6eef514ec0c83"
        )
        assert digest(second.logits) == (
            "d8a10c82a6ebdfac25039cd8aa743782e328171cbc3ca729724e55318338464c"
        )


class TestGenerationBoundary:
    def test_growth_recuts_routing_without_rebalancer(self, dataset):
        dyn, _, _ = build_dynamic(dataset)
        d = dataset.d0
        from repro.dynamic import MutationBatch
        n0 = dyn.graph.n
        dyn.apply(MutationBatch(
            batch_id=0, arrival=0.0,
            insert_edges=np.array([[n0, 0], [n0 + 1, 1]], dtype=np.int64),
            add_features=np.zeros((2, d), dtype=np.float32),
            add_labels=np.zeros(2, dtype=np.int64),
        ))
        stats = dyn.commit()
        assert stats.num_vertices == n0 + 2
        assert stats.rebalance_triggered
        assert dyn.engine.partition.total == n0 + 2
        assert dyn.engine._owner_of.size == n0 + 2
        # new vertices are servable
        out = dyn.engine.query(np.array([n0, n0 + 1]))
        assert out.shape[0] == 2

    def test_boundary_counters_reach_telemetry(self, dataset):
        spec = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, 2)
        telemetry = Telemetry(run_id="dyn-test")
        dyn = DynamicServingEngine(
            DynamicGraph(dataset), init_weights(spec.layer_dims, seed=1),
            spec, config=serving_config(dataset.n), telemetry=telemetry,
        )
        version_before = dyn.engine.model_version
        requests = poisson_workload(dataset, 20, rate=1500.0, seed=5)
        mutations = poisson_mutations(dataset, 2, rate=300.0,
                                      edges_per_batch=8, skew=0.8, seed=7)
        dyn.run(requests, mutations)
        # mutations alone publish no new model
        assert dyn.engine.model_version == version_before
        flat = telemetry.registry.flatten()
        for key in (
            "repro_dynamic_generations_total",
            "repro_dynamic_mutations_applied_total",
            "repro_dynamic_rows_rebuilt_total",
            "repro_dynamic_cache_entries_delta_evicted_total",
            "repro_dynamic_cache_flush_equivalent_total",
            "repro_dynamic_vertices",
            "repro_dynamic_edges",
        ):
            assert key in flat, key
        assert flat["repro_dynamic_generations_total"] == 2

    def test_tile_cache_attached_to_boundary(self, dataset):
        spec = GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 2)
        graph = DynamicGraph(dataset)
        trainer = MGGCNTrainer(
            graph.snapshot_dataset(), spec, num_gpus=2,
            config=TrainerConfig(seed=0, cache_staleness_epochs=1,
                                 permute=False),
        )
        trainer.train_epoch()
        cache = trainer.training_cache
        assert cache is not None and len(cache) > 0
        dyn = DynamicServingEngine(
            graph, trainer.get_weights(), spec,
            config=serving_config(dataset.n),
        )
        dyn.attach_tile_cache(cache, trainer.graph.part,
                              perm=trainer.graph.perm)
        for batch in poisson_mutations(dataset, 2, rate=300.0,
                                       edges_per_batch=12, skew=1.0, seed=9):
            dyn.apply(batch)
        stats = dyn.commit()
        assert stats.tile_flush_equivalent > 0
        assert stats.tile_entries_delta_evicted <= stats.tile_flush_equivalent
