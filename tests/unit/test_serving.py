"""Unit tests: the online-inference serving subsystem (repro.serve)."""

import numpy as np
import pytest

from repro.datasets import load_dataset, sample_query_vertices
from repro.errors import (
    ConfigurationError,
    DatasetError,
    RecoveryError,
)
from repro.hardware import dgx_a100
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.nn.reference import ReferenceGCN
from repro.resilience.faults import DeviceFailure, FaultPlan
from repro.serve import (
    EmbeddingCache,
    InferenceRequest,
    MicroBatcher,
    ServingConfig,
    ServingEngine,
    ServingMetrics,
    bursty_workload,
    latency_percentile,
    pin_by_degree,
    poisson_workload,
)
from repro.serve.metrics import DegradeEvent

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def serving_dataset():
    return load_dataset("reddit", scale=0.002, learnable=True, seed=0)


@pytest.fixture(scope="module")
def serving_model(serving_dataset):
    ds = serving_dataset
    return GCNModelSpec.build(ds.d0, 16, ds.num_classes, 3)


@pytest.fixture(scope="module")
def reference(serving_dataset, serving_model):
    ref = ReferenceGCN(serving_dataset, serving_model, seed=1)
    ref.fit(2)
    return ref


def make_engine(dataset, reference, **overrides):
    defaults = dict(
        machine=dgx_a100(),
        num_gpus=4,
        cache_entries=4 * dataset.n,
        num_pinned=8,
        max_batch_size=8,
    )
    defaults.update(overrides)
    return ServingEngine(
        dataset,
        reference.weights,
        reference.model,
        config=ServingConfig(**defaults),
    )


class TestQuerySampling:
    def test_uniform_in_range(self, serving_dataset):
        v = sample_query_vertices(serving_dataset, 100, seed=0)
        assert v.shape == (100,)
        assert v.min() >= 0 and v.max() < serving_dataset.n

    def test_seeded_reproducible(self, serving_dataset):
        a = sample_query_vertices(serving_dataset, 50, skew=1.2, seed=3)
        b = sample_query_vertices(serving_dataset, 50, skew=1.2, seed=3)
        assert (a == b).all()

    def test_skew_prefers_high_degree(self, serving_dataset):
        ds = serving_dataset
        adj = ds.adjacency
        degree = (
            np.bincount(adj.rows, minlength=ds.n)
            + np.bincount(adj.cols, minlength=ds.n)
        )
        skewed = sample_query_vertices(ds, 2000, skew=1.5, seed=0)
        uniform = sample_query_vertices(ds, 2000, skew=0.0, seed=0)
        assert degree[skewed].mean() > degree[uniform].mean()

    def test_rejects_symbolic_and_bad_args(self, serving_dataset):
        symbolic = load_dataset("reddit", symbolic=True)
        with pytest.raises(DatasetError):
            sample_query_vertices(symbolic, 10)
        with pytest.raises(DatasetError):
            sample_query_vertices(serving_dataset, -1)
        with pytest.raises(DatasetError):
            sample_query_vertices(serving_dataset, 10, skew=-0.5)


class TestWorkload:
    def test_poisson_sorted_and_seeded(self, serving_dataset):
        a = poisson_workload(serving_dataset, 40, rate=100.0, skew=1.0, seed=5)
        b = poisson_workload(serving_dataset, 40, rate=100.0, skew=1.0, seed=5)
        assert [r.arrival for r in a] == [r.arrival for r in b]
        assert [r.vertices for r in a] == [r.vertices for r in b]
        arrivals = [r.arrival for r in a]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in a] == list(range(40))

    def test_poisson_rate_sets_mean_gap(self, serving_dataset):
        reqs = poisson_workload(serving_dataset, 4000, rate=100.0, seed=1)
        mean_gap = reqs[-1].arrival / len(reqs)
        assert mean_gap == pytest.approx(1 / 100.0, rel=0.1)

    def test_bursty_groups_arrivals(self, serving_dataset):
        reqs = bursty_workload(
            serving_dataset, num_bursts=5, burst_size=4, burst_rate=10.0,
            intra_burst_gap=1e-6, seed=2,
        )
        assert len(reqs) == 20
        arrivals = np.asarray([r.arrival for r in reqs])
        gaps = np.diff(arrivals)
        # 3 of every 4 gaps are intra-burst (tiny), the rest inter-burst.
        assert (gaps < 1e-5).sum() >= 12

    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            InferenceRequest(request_id=0, vertices=(), arrival=0.0)
        with pytest.raises(ConfigurationError):
            InferenceRequest(request_id=0, vertices=(1,), arrival=-1.0)


class TestMicroBatcher:
    def _requests(self, arrivals):
        return [
            InferenceRequest(request_id=i, vertices=(i,), arrival=t)
            for i, t in enumerate(arrivals)
        ]

    def test_full_batch_dispatches_immediately(self):
        reqs = self._requests([0.0, 0.0, 0.0, 0.0])
        batcher = MicroBatcher(reqs, max_batch_size=4)
        batch = batcher.next_batch(server_free=0.0)
        assert batch.size == 4
        assert batch.dispatch_time == 0.0  # full batch never waits

    def test_idle_engine_dispatches_on_arrival(self):
        reqs = self._requests([1.0, 1.5])
        batcher = MicroBatcher(reqs, max_batch_size=8)
        batch = batcher.next_batch(server_free=0.0)
        # an idle engine takes a lone request the instant it arrives.
        assert batch.dispatch_time == 1.0
        assert batch.size == 1
        assert batch.queue_depth == 1

    def test_busy_server_defers_and_coalesces(self):
        reqs = self._requests([0.0, 0.1, 0.2, 0.3, 0.4])
        batcher = MicroBatcher(reqs, max_batch_size=3)
        first = batcher.next_batch(server_free=0.0)
        assert first.size == 1
        # the engine is busy until t=0.35: three more arrive meanwhile.
        second = batcher.next_batch(server_free=0.35)
        assert second.dispatch_time == pytest.approx(0.35)
        assert second.size == 3
        assert second.queue_depth == 3

    def test_stream_is_exhausted_exactly_once(self):
        reqs = self._requests([0.0, 0.5, 1.0])
        batcher = MicroBatcher(reqs, max_batch_size=2)
        seen = []
        free = 0.0
        while (batch := batcher.next_batch(free)) is not None:
            seen.extend(r.request_id for r in batch.requests)
            free = batch.dispatch_time
        assert sorted(seen) == [0, 1, 2]
        assert batcher.pending == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher([], max_batch_size=0)


class TestEmbeddingCache:
    def test_hit_miss_split(self):
        cache = EmbeddingCache(capacity=8)
        cache.insert(1, np.array([3, 5]), np.ones((2, 4)), version=0)
        hits, misses, rows = cache.lookup(
            1, np.array([3, 4, 5]), version=0
        )
        assert hits.tolist() == [3, 5]
        assert misses.tolist() == [4]
        assert rows.shape == (2, 4)

    def test_version_bump_invalidates_lazily(self):
        cache = EmbeddingCache(capacity=8)
        cache.insert(1, np.array([0]), np.ones((1, 2)), version=0)
        hits, misses, _ = cache.lookup(1, np.array([0]), version=1)
        assert hits.size == 0 and misses.tolist() == [0]
        assert cache.stats.stale_drops == 1
        assert len(cache) == 0  # dropped on touch

    def test_lru_eviction_order(self):
        cache = EmbeddingCache(capacity=2)
        cache.insert(1, np.array([0]), np.zeros((1, 2)), version=0)
        cache.insert(1, np.array([1]), np.zeros((1, 2)), version=0)
        cache.lookup(1, np.array([0]), version=0)  # refresh 0
        cache.insert(1, np.array([2]), np.zeros((1, 2)), version=0)
        assert cache.resident_vertices(1).tolist() == [0, 2]  # 1 evicted

    def test_pinned_entries_survive_pressure(self):
        cache = EmbeddingCache(capacity=2, pinned=[7])
        cache.insert(1, np.array([7]), np.zeros((1, 2)), version=0)
        for v in range(3):
            cache.insert(1, np.array([v]), np.zeros((1, 2)), version=0)
        assert 7 in cache.resident_vertices(1).tolist()

    def test_zero_capacity_disables(self):
        cache = EmbeddingCache(capacity=0)
        cache.insert(1, np.array([0]), np.ones((1, 2)), version=0)
        hits, misses, rows = cache.lookup(1, np.array([0]), version=0)
        assert hits.size == 0 and rows is None
        assert len(cache) == 0

    def test_invalidate_vertices_drops_all_layers(self):
        cache = EmbeddingCache(capacity=8)
        cache.insert(1, np.array([0, 1]), np.zeros((2, 2)), version=0)
        cache.insert(2, np.array([0]), np.zeros((1, 2)), version=0)
        dropped = cache.invalidate_vertices([0])
        assert dropped == 2
        assert cache.resident_vertices(1).tolist() == [1]
        assert cache.resident_vertices(2).tolist() == []

    def test_rejects_negative_ids_versions_and_width_changes(self):
        cache = EmbeddingCache(capacity=8)
        with pytest.raises(ConfigurationError):
            cache.insert(1, np.array([-1]), np.ones((1, 2)), version=0)
        with pytest.raises(ConfigurationError):
            cache.insert(1, np.array([0]), np.ones((1, 2)), version=-1)
        cache.insert(1, np.array([0]), np.ones((1, 2)), version=0)
        with pytest.raises(ConfigurationError):
            cache.insert(1, np.array([1]), np.ones((1, 3)), version=0)
        # an emptied layer takes the next insert's width.
        cache.invalidate_at(1, [0])
        cache.insert(1, np.array([1]), np.ones((1, 3)), version=0)
        assert cache.lookup(1, np.array([1]), version=0)[2].shape == (1, 3)

    def test_mixed_dtypes_widen_the_layer(self):
        cache = EmbeddingCache(capacity=8)
        small = np.array([[0.1, 0.2]], dtype=np.float32)
        cache.insert(1, np.array([0]), small, version=0)
        cache.insert(1, np.array([1]), small.astype(np.float64), version=0)
        _, _, rows = cache.lookup(1, np.array([0, 1]), version=0)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, np.vstack([small, small]))

    def test_pin_by_degree_picks_top(self):
        degrees = np.array([5, 1, 9, 9, 0])
        assert pin_by_degree(degrees, 2) == frozenset({2, 3})
        assert pin_by_degree(degrees, 0) == frozenset()


class TestServingMetrics:
    def test_nearest_rank_percentiles(self):
        latencies = list(range(1, 101))
        assert latency_percentile(latencies, 50) == 50
        assert latency_percentile(latencies, 99) == 99
        assert latency_percentile(latencies, 100) == 100
        with pytest.raises(ConfigurationError):
            latency_percentile([], 50)
        with pytest.raises(ConfigurationError):
            latency_percentile([1.0], 0)

    def test_summary_requires_records(self):
        with pytest.raises(ConfigurationError):
            ServingMetrics().summary()

    def test_degrade_events_counted(self):
        metrics = ServingMetrics()
        metrics.observe_degrade(
            DegradeEvent(rank=1, time=0.5, rerouted_vertices=10,
                         invalidated_entries=3)
        )
        assert len(metrics.degrade_events) == 1


class TestServingEngine:
    def test_query_matches_reference_forward(
        self, serving_dataset, reference
    ):
        engine = make_engine(serving_dataset, reference)
        full = reference.forward()[-1]
        targets = [0, 7, serving_dataset.n - 1, 7]
        got = engine.query(targets)
        np.testing.assert_allclose(
            got, full[targets], rtol=1e-6, atol=1e-6
        )

    def test_query_matches_with_tiny_cache_evictions(
        self, serving_dataset, reference
    ):
        engine = make_engine(
            serving_dataset, reference, cache_entries=16, num_pinned=4
        )
        full = reference.forward()[-1]
        rng = np.random.default_rng(0)
        for _ in range(5):
            targets = rng.integers(0, serving_dataset.n, size=6)
            np.testing.assert_allclose(
                engine.query(targets), full[targets], rtol=1e-6, atol=1e-6
            )
        assert engine.cache.stats.evictions > 0

    def test_serve_returns_all_logits_and_summary(
        self, serving_dataset, reference
    ):
        engine = make_engine(serving_dataset, reference)
        engine.warm_cache()
        requests = poisson_workload(
            serving_dataset, 30, rate=2000.0, skew=1.0, seed=4
        )
        result = engine.serve(requests)
        assert set(result.logits) == {r.request_id for r in requests}
        full = reference.forward()[-1]
        for r in requests:
            np.testing.assert_allclose(
                result.logits[r.request_id], full[list(r.vertices)],
                rtol=1e-6, atol=1e-6,
            )
        s = result.summary
        assert s["num_requests"] == 30
        assert s["latency_p50"] <= s["latency_p95"] <= s["latency_p99"]
        assert s["throughput_rps"] > 0
        assert s["cache_hit_rate"] == 1.0  # fully warmed, no update

    def test_warm_cache_replays_after_weight_update(
        self, serving_dataset, reference, serving_model
    ):
        engine = make_engine(serving_dataset, reference)
        engine.warm_cache()
        assert engine._warm_plan is not None
        plan = engine._warm_plan
        new_weights = [w * 1.5 for w in reference.weights]
        engine.update_weights(new_weights)
        engine.warm_cache()  # replay, not re-capture
        assert engine._warm_plan is plan
        shadow = ReferenceGCN(serving_dataset, serving_model, seed=1)
        shadow.weights = [w.astype(np.float32) for w in new_weights]
        full = shadow.forward()[-1]
        got = engine.query([1, 2, 3])
        np.testing.assert_allclose(got, full[[1, 2, 3]], rtol=1e-6, atol=1e-6)
        # post-update queries hit the re-warmed (new-version) entries
        assert engine.cache.stats.hits > 0

    def test_trace_carries_batch_correlation_ids(
        self, serving_dataset, reference
    ):
        engine = make_engine(serving_dataset, reference)
        requests = poisson_workload(serving_dataset, 10, rate=500.0, seed=6)
        engine.serve(requests)
        correlations = {
            ev.correlation
            for ev in engine.ctx.engine.trace
            if ev.correlation is not None
        }
        assert "batch-0" in correlations
        from repro.telemetry import chrome_trace

        events = chrome_trace({None: engine.ctx.engine.trace})
        tagged = [e for e in events if "correlation" in e.get("args", {})]
        assert tagged, "chrome trace must carry the correlation ids"

    def test_degraded_mode_keeps_logits_correct(
        self, serving_dataset, reference
    ):
        fault_plan = FaultPlan(
            device_failures=(DeviceFailure(rank=1, time=2e-3),)
        )
        engine = make_engine(
            serving_dataset, reference, fault_plan=fault_plan
        )
        engine.warm_cache()
        requests = poisson_workload(
            serving_dataset, 60, rate=5000.0, skew=1.0, seed=7
        )
        result = engine.serve(requests)
        assert engine.alive_ranks == (0, 2, 3)
        assert result.summary["degrade_events"] == 1
        assert engine.cache.stats.invalidations > 0
        # every lost vertex is rerouted to a survivor
        assert not (engine._owner_of == 1).any()
        full = reference.forward()[-1]
        for r in requests:
            np.testing.assert_allclose(
                result.logits[r.request_id], full[list(r.vertices)],
                rtol=1e-6, atol=1e-6,
            )

    def test_all_devices_dead_raises(self, serving_dataset, reference):
        fault_plan = FaultPlan(
            device_failures=(DeviceFailure(rank=0, time=0.0),)
        )
        engine = make_engine(
            serving_dataset, reference, num_gpus=1, fault_plan=fault_plan
        )
        requests = poisson_workload(serving_dataset, 3, rate=100.0, seed=1)
        with pytest.raises(RecoveryError):
            engine.serve(requests)

    def test_zero_max_batch_size_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ServingConfig(max_batch_size=0)

    def test_negative_max_wait_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="max_wait"):
            ServingConfig(max_wait=-1e-3)

    def test_config_and_input_validation(self, serving_dataset, reference):
        with pytest.raises(ConfigurationError):
            ServingConfig(num_gpus=0)
        with pytest.raises(ConfigurationError):
            ServingConfig(cache_entries=-1)
        engine = make_engine(serving_dataset, reference)
        with pytest.raises(ConfigurationError):
            engine.query([])
        with pytest.raises(ConfigurationError):
            engine.query([serving_dataset.n])
        with pytest.raises(ConfigurationError):
            engine.serve([])
        with pytest.raises(ConfigurationError):
            engine.update_weights(reference.weights[:-1])
        cold = make_engine(serving_dataset, reference, cache_entries=0,
                           num_pinned=0)
        with pytest.raises(ConfigurationError):
            cold.warm_cache()

    def test_from_checkpoint_and_reload(
        self, serving_dataset, reference, tmp_path
    ):
        from repro.nn import save_weights

        path = tmp_path / "serve.npz"
        save_weights(reference.weights, path)
        engine = ServingEngine.from_checkpoint(
            serving_dataset, path,
            ServingConfig(machine=dgx_a100(), num_gpus=2, cache_entries=64),
        )
        full = reference.forward()[-1]
        np.testing.assert_allclose(
            engine.query([3]), full[[3]], rtol=1e-6, atol=1e-6
        )
        save_weights([w * 2.0 for w in reference.weights], path)
        version = engine.reload(path)
        assert version == 1