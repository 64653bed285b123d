"""Per-layer hidden-embedding cache with LRU eviction + hot-vertex pinning.

This is the shared cache core (:mod:`repro.cache`): the serving layer
(:mod:`repro.serve`) keys it by query vertex, and the training-time
remote-embedding cache (:mod:`repro.cache.training`) reuses the same
degree-ranked admission idea (:func:`pin_by_degree`) for its per-stage
row sets.

The cost of an L-layer GCN query is the size of its L-hop neighborhood
— the "neighborhood explosion" that makes naive per-request recompute
hopeless on power-law graphs. Caching *hidden* embeddings collapses it:
a cached ``H^(l)[v]`` truncates the entire subtree below ``(v, l)``, so
a query only recomputes the uncached frontier (Song et al.'s joint
caching/partitioning observation; DistGNN's cached aggregates are the
training-side analogue).

Entries are keyed ``(layer, vertex)`` and stamped with the model
version that produced them: bumping the served weights makes every
stale entry a miss without an O(capacity) sweep — stale rows are lazily
dropped on touch or evicted by LRU pressure. Eviction is LRU over the
un-pinned population; *pinning* exempts a designated hot set (top
vertices by degree — which under Zipf query skew is also the top by hit
probability) so bursts of cold-tail queries cannot flush the entries
that serve the bulk of the traffic.

Storage is array-shaped so every call is a handful of vectorised
gathers and scatters, not a loop over vertices. Each layer holds a row
store, a model-version array (``-1`` = absent) and an LRU stamp array,
all indexed by vertex id and grown on demand as larger ids are
inserted. One cache-wide clock stamps every touch (insert or hit), so
the stamp order across all layers is the least-recently-used order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

_ABSENT = -1


@dataclass
class CacheStats:
    """Counters over the cache's lifetime (reset with the cache)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    stale_drops: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def pin_by_degree(
    degrees: np.ndarray, num_pinned: int
) -> FrozenSet[int]:
    """The ``num_pinned`` highest-degree vertices (ties: lowest id wins)."""
    if num_pinned <= 0:
        return frozenset()
    degrees = np.asarray(degrees)
    top = np.argsort(-degrees, kind="stable")[:num_pinned]
    return frozenset(int(v) for v in top)


def _increasing(ids: np.ndarray) -> bool:
    """Whether ``ids`` is strictly increasing: sorted, no repeats."""
    return ids.size < 2 or not np.count_nonzero(ids[1:] <= ids[:-1])


def _id_range(ids: np.ndarray) -> Tuple[int, int]:
    """``(min, max)`` of non-empty ``ids``; read off the ends when the
    ids increase, the engine's sorted frontiers always do."""
    if _increasing(ids):
        return ids[0], ids[-1]
    return ids.min(), ids.max()


def _last_positions(ids: np.ndarray) -> Optional[np.ndarray]:
    """Position of each id's last occurrence; ``None`` if ids are unique.

    Strictly increasing ids (the common case: sorted unique frontiers)
    are detected in O(k) and need no sort.
    """
    if _increasing(ids):
        return None
    _, first_reversed = np.unique(ids[::-1], return_index=True)
    return ids.size - 1 - first_reversed


class _LayerStore:
    """One layer's entries, indexed by vertex id."""

    __slots__ = ("rows", "version", "stamp", "count")

    def __init__(self, size: int, row_shape: Tuple[int, ...], dtype):
        self.rows = np.empty((size,) + row_shape, dtype=dtype)
        self.version = np.full(size, _ABSENT, dtype=np.int64)
        self.stamp = np.zeros(size, dtype=np.int64)
        #: resident entries (``version >= 0``).
        self.count = 0

    def resize(self, size: int) -> None:
        old = self.version.size
        rows = np.empty((size,) + self.rows.shape[1:], dtype=self.rows.dtype)
        rows[:old] = self.rows
        version = np.full(size, _ABSENT, dtype=np.int64)
        version[:old] = self.version
        stamp = np.zeros(size, dtype=np.int64)
        stamp[:old] = self.stamp
        self.rows, self.version, self.stamp = rows, version, stamp

    def drop(self, ids: np.ndarray) -> int:
        """Remove the resident entries among unique ``ids``; their count."""
        live = ids[self.version[ids] != _ABSENT]
        self.version[live] = _ABSENT
        self.count -= live.size
        return int(live.size)


class EmbeddingCache:
    """LRU cache of hidden-embedding rows keyed ``(layer, vertex)``.

    ``capacity`` counts *entries* (one vertex at one layer); zero
    disables caching entirely (every lookup misses, inserts are
    dropped) — the cold-path configuration of the serving benchmarks.

    Memory is one row per vertex id up to the largest id inserted, per
    layer, whatever the capacity: the cache trades that footprint for
    array-speed calls.
    """

    def __init__(
        self,
        capacity: int,
        pinned: Iterable[int] = (),
    ):
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.pinned: FrozenSet[int] = frozenset(int(v) for v in pinned)
        self._pinned_ids = np.asarray(
            sorted(v for v in self.pinned if v >= 0), dtype=np.int64
        )
        #: vertex-id slots per layer store; grows, never shrinks.
        self._size = 0
        self._is_pinned = np.zeros(0, dtype=bool)
        self._layers: Dict[int, _LayerStore] = {}
        self._len = 0
        #: next LRU stamp; every touch takes a fresh, larger one.
        self._clock = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return self._len

    @property
    def occupancy(self) -> float:
        return self._len / self.capacity if self.capacity else 0.0

    # -- lookup ---------------------------------------------------------------

    def lookup(
        self, layer: int, vertices: np.ndarray, version: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Split ``vertices`` into hits and misses at ``layer``/``version``.

        Returns ``(hit_ids, miss_ids, hit_rows)`` with ``hit_rows[i]``
        the cached embedding of ``hit_ids[i]`` (``None`` when there are
        no hits); both id arrays keep the input order. Hit rows are
        *copied out* here, at lookup time, so later inserts in the same
        query cannot evict data the caller still needs; touching a hit
        refreshes its LRU position. Entries from another model version
        are dropped (and counted as misses): the weights changed, so the
        row is garbage for this query.
        """
        ids = np.asarray(vertices, dtype=np.int64).ravel()
        store = self._layers.get(int(layer))
        if store is None or store.count == 0 or ids.size == 0:
            self.stats.misses += ids.size
            return np.empty(0, dtype=np.int64), ids.copy(), None
        lo, hi = _id_range(ids)
        if lo < 0 or hi >= self._size:
            held = np.full(ids.size, _ABSENT, dtype=np.int64)
            known = (ids >= 0) & (ids < self._size)
            held[known] = store.version[ids[known]]
        else:
            held = store.version[ids]
        hit = held == version
        if version != _ABSENT and np.count_nonzero(hit) == ids.size:
            # nothing stale, nothing missed: the common serving case.
            self.stats.hits += ids.size
            self._stamp(store, ids)
            return ids.copy(), np.empty(0, dtype=np.int64), store.rows[ids]
        present = held != _ABSENT
        hit &= present
        stale = present & ~hit
        if np.count_nonzero(stale):
            dropped = store.drop(np.unique(ids[stale]))
            self._len -= dropped
            self.stats.stale_drops += dropped
        hit_ids = ids[hit]
        miss_ids = ids[~hit]
        self.stats.hits += hit_ids.size
        self.stats.misses += miss_ids.size
        if not hit_ids.size:
            return hit_ids, miss_ids, None
        self._stamp(store, hit_ids)
        return hit_ids, miss_ids, store.rows[hit_ids]

    def _stamp(
        self, store: _LayerStore, ids: np.ndarray
    ) -> Optional[np.ndarray]:
        """Touch ``ids`` in order: each one's last occurrence is newest.

        Returns :func:`_last_positions` of ``ids``.
        """
        start = self._clock
        self._clock += ids.size
        last = _last_positions(ids)
        if last is None:
            store.stamp[ids] = np.arange(start, self._clock, dtype=np.int64)
        else:
            store.stamp[ids[last]] = start + last
        return last

    # -- insert / evict -------------------------------------------------------

    def insert(
        self,
        layer: int,
        vertices: np.ndarray,
        rows: np.ndarray,
        version: int,
    ) -> None:
        """Store ``rows[i]`` as the embedding of ``vertices[i]`` at ``layer``.

        A vertex listed twice keeps its last row. All rows of one layer
        share one shape; a layer's dtype widens to hold every insert.
        """
        vertices = np.asarray(vertices)
        rows = np.asarray(rows)
        if rows.shape[0] != vertices.shape[0]:
            raise ConfigurationError(
                f"insert: {vertices.shape[0]} vertices but {rows.shape[0]} rows"
            )
        if self.capacity == 0 or vertices.size == 0:
            return
        ids = vertices.astype(np.int64, copy=False).ravel()
        lo, hi = _id_range(ids)
        if lo < 0:
            raise ConfigurationError("insert: negative vertex id")
        if version < 0:
            raise ConfigurationError(
                f"insert: version must be >= 0, got {version}"
            )
        self._grow(int(hi) + 1)
        store = self._store_for(int(layer), rows)
        last = self._stamp(store, ids)
        if last is not None:
            ids, rows = ids[last], rows[last]
        fresh = int(np.count_nonzero(store.version[ids] == _ABSENT))
        store.version[ids] = version
        store.rows[ids] = rows
        store.count += fresh
        self._len += fresh
        self.stats.insertions += vertices.size
        self._evict_to_capacity()

    def _grow(self, needed: int) -> None:
        """Make room for vertex ids below ``needed`` in every layer."""
        if needed <= self._size:
            return
        size = max(needed, 2 * self._size)
        for store in self._layers.values():
            store.resize(size)
        self._is_pinned = np.zeros(size, dtype=bool)
        self._is_pinned[self._pinned_ids[self._pinned_ids < size]] = True
        self._size = size

    def _store_for(self, layer: int, rows: np.ndarray) -> _LayerStore:
        row_shape = rows.shape[1:]
        store = self._layers.get(layer)
        layout = (row_shape, rows.dtype)
        if store is None or (
            store.count == 0
            and (store.rows.shape[1:], store.rows.dtype) != layout
        ):
            store = _LayerStore(self._size, row_shape, rows.dtype)
            self._layers[layer] = store
        elif store.rows.shape[1:] != row_shape:
            raise ConfigurationError(
                f"insert: rows of shape {row_shape} at layer {layer}, "
                f"which holds rows of shape {store.rows.shape[1:]}"
            )
        elif store.rows.dtype != rows.dtype:
            store.rows = store.rows.astype(
                np.result_type(store.rows.dtype, rows.dtype), copy=False
            )
        return store

    def _evict_to_capacity(self) -> None:
        excess = self._len - self.capacity
        if excess <= 0:
            return
        # LRU over every layer skipping pinned vertices: the ``excess``
        # smallest stamps go (stamps are unique, so a threshold picks
        # exactly them). If pinned entries alone exceed capacity the
        # overflow stays resident (pinning is a guarantee, not a hint).
        candidates = []
        for store in self._layers.values():
            if store.count:
                live = (store.version != _ABSENT) & ~self._is_pinned
                candidates.append((store, np.nonzero(live)[0]))
        stamps = np.concatenate([s.stamp[ids] for s, ids in candidates])
        if stamps.size > excess:
            cut = np.partition(stamps, excess - 1)[excess - 1]
            candidates = [
                (s, ids[s.stamp[ids] <= cut]) for s, ids in candidates
            ]
        evicted = sum(s.drop(ids) for s, ids in candidates)
        self._len -= evicted
        self.stats.evictions += evicted

    # -- invalidation ---------------------------------------------------------

    def _known_ids(self, vertices: Iterable[int]) -> np.ndarray:
        """``vertices`` (any iterable) as unique ids a store can hold."""
        if not isinstance(vertices, np.ndarray):
            vertices = list(vertices)
        ids = np.asarray(vertices, dtype=np.int64).ravel()
        if not _increasing(ids):
            ids = np.unique(ids)
        return ids[(ids >= 0) & (ids < self._size)]

    def invalidate_vertices(self, vertices: Iterable[int]) -> int:
        """Drop every layer's entry for each vertex; returns drop count.

        This is the degraded-mode hook: when the device holding a cache
        shard dies, its resident rows are gone regardless of LRU state,
        pinned or not.
        """
        ids = self._known_ids(vertices)
        dropped = sum(store.drop(ids) for store in self._layers.values())
        self._len -= dropped
        self.stats.invalidations += dropped
        return dropped

    def invalidate_at(self, layer: int, vertices: Iterable[int]) -> int:
        """Drop ``(layer, v)`` entries for the given vertices only.

        The delta-invalidation hook: a mutation batch stales layer-``l``
        embeddings exactly for the l-hop-affected vertex set, so the
        dynamic engine evicts per ``(layer, vertex)`` instead of the
        all-layers sweep :meth:`invalidate_vertices` performs.
        """
        store = self._layers.get(int(layer))
        if store is None:
            return 0
        dropped = store.drop(self._known_ids(vertices))
        self._len -= dropped
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> int:
        """Drop everything (full flush); returns drop count."""
        count = self._len
        self._layers.clear()
        self._len = 0
        self.stats.invalidations += count
        return count

    def resident_vertices(self, layer: int) -> np.ndarray:
        """Vertices with a live entry at ``layer`` (tests/diagnostics)."""
        store = self._layers.get(int(layer))
        if store is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(store.version != _ABSENT)[0].astype(np.int64)
