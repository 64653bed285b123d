"""The serving host path's shortcuts against the general code they skip.

``EmbeddingCache.lookup`` returns early when every id hits;
``ServingEngine._embeddings_at`` hands back the hit rows when nothing
missed; ``DynamicServingEngine.commit`` no longer builds a COO snapshot
per generation. Each must be indistinguishable from the general path:
the same ids, rows, counters, LRU stamps, logits and dataset fields.
"""

import copy

import numpy as np
import pytest

from repro.cache import EmbeddingCache
from repro.cache.lru import _ABSENT
from repro.datasets import load_dataset, sample_query_vertices
from repro.dynamic import DynamicGraph, DynamicServingEngine, MutationBatch
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.serve import ServingConfig, ServingEngine

pytestmark = pytest.mark.serving


def general_lookup(cache, layer, vertices, version):
    """``EmbeddingCache.lookup`` without its all-hit early return."""
    ids = np.asarray(vertices, dtype=np.int64).ravel()
    store = cache._layers.get(int(layer))
    if store is None or store.count == 0 or ids.size == 0:
        cache.stats.misses += ids.size
        return np.empty(0, dtype=np.int64), ids.copy(), None
    held = np.full(ids.size, _ABSENT, dtype=np.int64)
    known = (ids >= 0) & (ids < cache._size)
    held[known] = store.version[ids[known]]
    present = held != _ABSENT
    hit = present & (held == version)
    stale = present & ~hit
    if stale.any():
        dropped = store.drop(np.unique(ids[stale]))
        cache._len -= dropped
        cache.stats.stale_drops += dropped
    hit_ids = ids[hit]
    miss_ids = ids[~hit]
    cache.stats.hits += hit_ids.size
    cache.stats.misses += miss_ids.size
    if not hit_ids.size:
        return hit_ids, miss_ids, None
    cache._stamp(store, hit_ids)
    return hit_ids, miss_ids, store.rows[hit_ids]


def filled_cache():
    cache = EmbeddingCache(capacity=64, pinned=(2,))
    rng = np.random.default_rng(0)
    cache.insert(1, np.arange(10), rng.random((10, 4), dtype=np.float32), 0)
    cache.insert(2, np.array([1, 3, 5]), rng.random((3, 2), dtype=np.float32), 0)
    cache.insert(1, np.array([7, 8]), rng.random((2, 4), dtype=np.float32), 1)
    return cache


def assert_same_state(got, want):
    assert got.stats == want.stats
    assert got._clock == want._clock
    assert len(got) == len(want)
    assert sorted(got._layers) == sorted(want._layers)
    for layer, store in got._layers.items():
        other = want._layers[layer]
        assert np.array_equal(store.version, other.version)
        assert np.array_equal(store.stamp, other.stamp)
        assert store.count == other.count


@pytest.mark.parametrize("layer, vertices, version", [
    (1, [4, 0, 9], 0),  # all hit
    (1, [9, 9, 4], 0),  # all hit, a repeated id
    (2, [5], 0),  # one id, hit
    (1, [4, 12, 7, 0], 0),  # mixed: a miss, an unknown id, a stale entry
    (1, [7, 8], 0),  # only stale entries
    (1, [7, 8], 1),  # all hit at the newer version
    (1, [0, 1], 1),  # every entry stale for this version
    (1, [0, -1, 200], 0),  # out-of-range ids
    (1, [], 0),  # empty input
    (3, [1], 0),  # a layer never written
], ids=["all-hit", "all-hit-dup", "single-hit", "mixed", "stale-only",
        "hit-new-version", "all-stale", "out-of-range", "empty", "no-layer"])
def test_lookup_matches_general_path(layer, vertices, version):
    got, want = filled_cache(), filled_cache()
    ids = np.asarray(vertices, dtype=np.int64)
    hit_ids, miss_ids, rows = got.lookup(layer, ids, version)
    want_hit, want_miss, want_rows = general_lookup(want, layer, ids, version)
    assert hit_ids.dtype == miss_ids.dtype == np.int64
    assert np.array_equal(hit_ids, want_hit)
    assert np.array_equal(miss_ids, want_miss)
    if want_rows is None:
        assert rows is None
    else:
        assert rows.dtype == want_rows.dtype
        assert np.array_equal(rows, want_rows)
    assert_same_state(got, want)
    # the returned ids never alias the caller's array.
    if hit_ids.size:
        hit_ids[0] = -5
        assert -5 not in ids


def test_lookup_sequence_matches_general_path():
    """A run of lookups, inserts and evictions keeps stamps in step."""
    got = EmbeddingCache(capacity=12, pinned=(0,))
    want = copy.deepcopy(got)
    rng = np.random.default_rng(1)
    for step in range(200):
        layer = int(rng.integers(1, 3))
        ids = rng.integers(0, 20, int(rng.integers(0, 5)))
        version = int(step >= 120)
        a = got.lookup(layer, ids, version)
        b = general_lookup(want, layer, ids, version)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert (a[2] is None) == (b[2] is None)
        if a[2] is not None:
            assert np.array_equal(a[2], b[2])
        rows = rng.random((a[1].size, 3), dtype=np.float32)
        got.insert(layer, a[1], rows, version)
        want.insert(layer, b[1], rows, version)
        assert_same_state(got, want)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("reddit", scale=0.002, learnable=True, seed=0)


def build(dataset, **cfg):
    spec = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, 2)
    weights = init_weights(spec.layer_dims, seed=3)
    config = ServingConfig(num_gpus=4, cache_entries=4 * dataset.n,
                           num_pinned=8, **cfg)
    return spec, weights, config


class TestEmbeddingsAt:
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_empty_vertex_set(self, dataset, layer):
        spec, weights, config = build(dataset)
        engine = ServingEngine(dataset, weights, spec, config=config)
        engine.warm_cache()
        stats = copy.copy(engine.cache.stats)
        rows = engine._embeddings_at(layer, np.empty(0, dtype=np.int64))
        assert rows.shape == (0, spec.layer_dims[layer])
        assert rows.dtype == np.float32
        assert engine.cache.stats == stats

    def test_all_hit_rows_equal_a_cold_recompute(self, dataset):
        spec, weights, config = build(dataset)
        warm = ServingEngine(dataset, weights, spec, config=config)
        warm.warm_cache()
        cold = ServingEngine(dataset, weights, spec, config=config)
        targets = np.unique(sample_query_vertices(dataset, 40, skew=1.0,
                                                  seed=5))
        stats = copy.copy(warm.cache.stats)
        hit = warm._embeddings_at(2, targets)
        assert warm.cache.stats.hits == stats.hits + targets.size
        assert warm.cache.stats.misses == stats.misses
        assert np.array_equal(hit, cold._embeddings_at(2, targets))


class TestCommitWithoutSnapshot:
    def _grown(self, dataset):
        spec, weights, config = build(dataset)
        dyn = DynamicServingEngine(DynamicGraph(dataset), weights, spec,
                                   config=config)
        n0 = dyn.graph.n
        dyn.apply(MutationBatch(
            batch_id=0, arrival=0.0,
            insert_edges=np.array([[n0, 0], [1, n0 + 1], [n0, n0 + 1]],
                                  dtype=np.int64),
            add_features=np.full((2, dataset.d0), 0.5, dtype=np.float32),
            add_labels=np.array([0, 1], dtype=np.int64),
        ))
        dyn.commit()
        return dyn, spec, weights, config

    def test_live_fields_equal_the_snapshot(self, dataset):
        dyn, _, _, _ = self._grown(dataset)
        snap = dyn.graph.snapshot_dataset()
        engine = dyn.engine
        assert engine.num_vertices == snap.n == dataset.n + 2
        assert np.array_equal(engine.features, snap.features)
        assert engine.dataset.n == snap.n
        assert engine.dataset.num_classes == snap.num_classes
        assert np.array_equal(engine.dataset.features, snap.features)
        assert np.array_equal(engine.dataset.adjacency.rows,
                              snap.adjacency.rows)
        assert np.array_equal(engine.dataset.adjacency.cols,
                              snap.adjacency.cols)

    def test_query_matches_a_cold_engine(self, dataset):
        dyn, spec, weights, config = self._grown(dataset)
        snap = dyn.graph.snapshot_dataset()
        cold = ServingEngine(snap, weights, spec, config=config)
        targets = np.concatenate((
            sample_query_vertices(snap, 20, skew=0.7, seed=17),
            [snap.n - 2, snap.n - 1],
        ))
        assert np.array_equal(dyn.engine.query(targets), cold.query(targets))
