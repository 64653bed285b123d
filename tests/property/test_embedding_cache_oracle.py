"""Property tests: the array-backed EmbeddingCache against a dict oracle.

:class:`OrderedDictCache` is the straightforward implementation — one
``OrderedDict`` entry per ``(layer, vertex)``, touch order as LRU order,
a Python loop per call. :class:`~repro.cache.lru.EmbeddingCache` must be
observationally identical to it: the same hit and miss ids in the same
order, bitwise-equal rows, the same :class:`CacheStats`, the same
resident set and the same drop counts, after every call of any
interleaving.
"""

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheStats, EmbeddingCache

pytestmark = pytest.mark.serving


class OrderedDictCache:
    """Reference LRU: one ``OrderedDict`` entry per ``(layer, vertex)``."""

    def __init__(self, capacity: int, pinned: Iterable[int] = ()):
        self.capacity = int(capacity)
        self.pinned: FrozenSet[int] = frozenset(int(v) for v in pinned)
        self._entries: "OrderedDict[Tuple[int, int], Tuple[int, np.ndarray]]" = (
            OrderedDict()
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, layer, vertices, version):
        hit_ids: List[int] = []
        hit_rows: List[np.ndarray] = []
        miss_ids: List[int] = []
        for v in np.asarray(vertices).tolist():
            key = (int(layer), int(v))
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                miss_ids.append(v)
                continue
            entry_version, row = entry
            if entry_version != version:
                del self._entries[key]
                self.stats.stale_drops += 1
                self.stats.misses += 1
                miss_ids.append(v)
                continue
            self._entries.move_to_end(key)
            self.stats.hits += 1
            hit_ids.append(v)
            hit_rows.append(row)
        return (
            np.asarray(hit_ids, dtype=np.int64),
            np.asarray(miss_ids, dtype=np.int64),
            np.stack(hit_rows) if hit_rows else None,
        )

    def insert(self, layer, vertices, rows, version) -> None:
        vertices = np.asarray(vertices)
        rows = np.asarray(rows)
        if self.capacity == 0:
            return
        for i, v in enumerate(vertices.tolist()):
            key = (int(layer), int(v))
            self._entries[key] = (version, np.array(rows[i], copy=True))
            self._entries.move_to_end(key)
            self.stats.insertions += 1
        if len(self._entries) <= self.capacity:
            return
        for key in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            if key[1] in self.pinned:
                continue
            del self._entries[key]
            self.stats.evictions += 1

    def _drop(self, keys) -> int:
        for key in keys:
            del self._entries[key]
        self.stats.invalidations += len(keys)
        return len(keys)

    def invalidate_vertices(self, vertices) -> int:
        doomed = {int(v) for v in vertices}
        return self._drop([k for k in self._entries if k[1] in doomed])

    def invalidate_at(self, layer, vertices) -> int:
        doomed = {int(v) for v in vertices}
        return self._drop(
            [k for k in self._entries if k[0] == layer and k[1] in doomed]
        )

    def clear(self) -> int:
        return self._drop(list(self._entries))

    def resident_vertices(self, layer) -> np.ndarray:
        return np.asarray(
            sorted(v for (l, v) in self._entries if l == layer),
            dtype=np.int64,
        )


LAYERS = (0, 1, 2)
#: row width per layer; one width per layer, as a served model has.
WIDTH = {0: 3, 1: 2, 2: 1}
MAX_ID = 48


def _rows(seed: int, count: int, layer: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, WIDTH[layer])).astype(dtype)


def _same_array(got: Optional[np.ndarray], want: Optional[np.ndarray]):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_state(cache: EmbeddingCache, oracle: OrderedDictCache) -> None:
    assert cache.stats == oracle.stats
    assert len(cache) == len(oracle)
    for layer in LAYERS:
        _same_array(
            cache.resident_vertices(layer), oracle.resident_vertices(layer)
        )


def _apply(cache, oracle, op, state: Dict[str, object]) -> None:
    """Run one op on both caches; assert their answers agree."""
    kind = op[0]
    version = state["version"]
    if kind == "lookup":
        _, layer, ids, stale = op
        v = max(version - 1, 0) if stale else version
        got = cache.lookup(layer, np.asarray(ids, dtype=np.int64), v)
        want = oracle.lookup(layer, np.asarray(ids, dtype=np.int64), v)
        for g, w in zip(got, want):
            _same_array(g, w)
    elif kind == "insert":
        _, layer, ids, stale, seed = op
        v = max(version - 1, 0) if stale else version
        rows = _rows(seed, len(ids), layer, state["dtype"])
        cache.insert(layer, np.asarray(ids, dtype=np.int64), rows, v)
        oracle.insert(layer, np.asarray(ids, dtype=np.int64), rows, v)
    elif kind == "bump":
        state["version"] = version + 1
    elif kind == "invalidate_at":
        _, layer, ids = op
        assert cache.invalidate_at(layer, ids) == oracle.invalidate_at(
            layer, ids
        )
    elif kind == "invalidate_vertices":
        _, ids = op
        assert cache.invalidate_vertices(ids) == (
            oracle.invalidate_vertices(ids)
        )
    elif kind == "clear":
        assert cache.clear() == oracle.clear()
    _same_state(cache, oracle)


_layer = st.sampled_from(LAYERS)
# lookups and invalidations may name ids never inserted, or negative.
_any_ids = st.lists(st.integers(-1, MAX_ID), max_size=12)
_insert_ids = st.lists(st.integers(0, MAX_ID), max_size=12)
_lookup = st.tuples(st.just("lookup"), _layer, _any_ids, st.booleans())
_insert = st.tuples(
    st.just("insert"), _layer, _insert_ids, st.booleans(),
    st.integers(0, 2**31),
)
_ops = st.lists(
    st.one_of(
        _lookup,
        _insert,
        _insert,
        _lookup,
        st.tuples(st.just("bump")),
        st.tuples(st.just("invalidate_at"), _layer, _any_ids),
        st.tuples(st.just("invalidate_vertices"), _any_ids),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(0, 16),
    pinned=st.frozensets(st.integers(0, MAX_ID), max_size=20),
    dtype=st.sampled_from([np.float32, np.float64]),
    ops=_ops,
)
def test_matches_ordered_dict_oracle(capacity, pinned, dtype, ops):
    cache = EmbeddingCache(capacity, pinned=pinned)
    oracle = OrderedDictCache(capacity, pinned=pinned)
    state = {"version": 0, "dtype": dtype}
    for op in ops:
        _apply(cache, oracle, op, state)


@pytest.mark.parametrize("capacity,num_pinned", [(24, 4), (8, 12), (0, 0)])
def test_long_random_interleaving(capacity, num_pinned):
    """Thousands of calls: LRU order must still agree after heavy churn,
    pinned overflow (more pinned than capacity) and id-space growth."""
    rng = np.random.default_rng(capacity + num_pinned)
    pinned = rng.choice(200, size=num_pinned, replace=False).tolist()
    cache = EmbeddingCache(capacity, pinned=pinned)
    oracle = OrderedDictCache(capacity, pinned=pinned)
    state = {"version": 0, "dtype": np.float32}
    for step in range(3000):
        # the id range widens over the run, so inserts keep passing the
        # largest id seen so far.
        hi = 20 + step // 15
        layer = int(rng.choice(LAYERS))
        roll = rng.random()
        if roll < 0.45:
            ids = rng.integers(0, hi, size=int(rng.integers(0, 16))).tolist()
            op = ("lookup", layer, ids, bool(rng.random() < 0.1))
        elif roll < 0.9:
            ids = rng.integers(0, hi, size=int(rng.integers(0, 16))).tolist()
            op = ("insert", layer, ids, bool(rng.random() < 0.1),
                  int(rng.integers(2**31)))
        elif roll < 0.93:
            op = ("bump",)
        elif roll < 0.97:
            op = ("invalidate_at", layer,
                  rng.integers(0, hi, size=5).tolist())
        elif roll < 0.995:
            op = ("invalidate_vertices", rng.integers(0, hi, size=3).tolist())
        else:
            op = ("clear",)
        _apply(cache, oracle, op, state)
