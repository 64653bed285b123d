"""Mixed read/write serving: queries and mutations interleaved.

:class:`DynamicServingEngine` wraps a
:class:`~repro.serve.server.ServingEngine` and drives it *through*
generation boundaries instead of against a frozen snapshot. At each
boundary it:

1. commits the :class:`~repro.dynamic.graph.DynamicGraph` delta buffer
   (touched-row CSR splice + restricted renormalisation);
2. swaps the new matrices into the live engine in place — adjacency,
   row-nnz table, degree table, features — and drops the warm
   plan, so the next warm *recaptures* against the new shapes instead
   of stale-replaying;
3. delta-invalidates the serving LRU: exactly the L-hop-affected
   ``(layer, vertex)`` entries (:func:`~repro.dynamic.invalidate.l_hop_affected`)
   are evicted, everything else keeps serving — the eviction count vs
   the flush-equivalent is reported per generation;
4. recuts the routing partition uniformly when the vertex set grew,
   so routing covers the new rows (moving only rows whose owner
   changed).

Every boundary emits a ``dynamic.gen-*`` telemetry span plus
``repro_dynamic_*`` counters, so one hub sees reads and writes on a
single timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dynamic.graph import CommitResult, DynamicGraph
from repro.dynamic.invalidate import l_hop_affected
from repro.dynamic.mutation import MutationBatch, MutationStream
from repro.errors import ConfigurationError
from repro.serve.server import ServingConfig, ServingEngine
from repro.serve.workload import InferenceRequest
from repro.sparse.partition import uniform_partition


@dataclass(frozen=True)
class GenerationStats:
    """Telemetry of one generation boundary."""

    generation: int
    arrival: float
    mutations_applied: int
    rows_rebuilt: int
    cache_entries_delta_evicted: int
    cache_flush_equivalent: int
    tile_entries_delta_evicted: int
    tile_flush_equivalent: int
    rebalance_triggered: bool
    rebalance_moves: int
    num_vertices: int
    num_edges: int

    @property
    def eviction_fraction(self) -> float:
        """Delta evictions as a share of what a full flush would drop."""
        if self.cache_flush_equivalent == 0:
            return 0.0
        return (
            self.cache_entries_delta_evicted / self.cache_flush_equivalent
        )


@dataclass(frozen=True)
class DynamicServingResult:
    """One mixed read/write run end to end."""

    logits: Dict[int, np.ndarray]
    summary: Dict[str, float]
    generations: Tuple[GenerationStats, ...]

    @property
    def total_delta_evicted(self) -> int:
        return sum(g.cache_entries_delta_evicted for g in self.generations)

    @property
    def total_flush_equivalent(self) -> int:
        return sum(g.cache_flush_equivalent for g in self.generations)


class DynamicServingEngine:
    """A serving engine that keeps answering while the graph changes."""

    def __init__(
        self,
        graph: DynamicGraph,
        weights: Sequence[np.ndarray],
        spec,
        config: Optional[ServingConfig] = None,
        telemetry=None,
        slo=None,
    ):
        self.graph = graph
        self.engine = ServingEngine(
            graph.snapshot_dataset(), weights, spec,
            config=config, telemetry=telemetry, slo=slo,
        )
        self.telemetry = telemetry
        #: training-side caches to delta-invalidate at each boundary:
        #: ``(TrainingTileCache, PartitionVector, perm or None)``.
        self._tile_caches: List[Tuple[object, object, Optional[np.ndarray]]] = []
        self.generations: List[GenerationStats] = []

    # -- wiring ---------------------------------------------------------------

    def attach_tile_cache(self, cache, part, perm=None) -> None:
        """Delta-invalidate a training tile cache at every boundary.

        ``part`` is the owning trainer's partition vector over *permuted*
        rows; ``perm`` (if the trainer permuted, §5.2) maps permuted
        position -> original vertex id, and is inverted here to route
        touched original ids to their permuted rows.
        """
        inv = None
        if perm is not None:
            perm = np.asarray(perm, dtype=np.int64)
            inv = np.empty(perm.size, dtype=np.int64)
            inv[perm] = np.arange(perm.size, dtype=np.int64)
        self._tile_caches.append((cache, part, inv))

    # -- the write path -------------------------------------------------------

    def apply(self, batch: MutationBatch) -> int:
        return self.graph.apply(batch)

    def _delta_invalidate(self, result: CommitResult) -> Tuple[int, int]:
        cache = self.engine.cache
        flush_equivalent = len(cache)
        if flush_equivalent == 0:
            return 0, 0
        stale = l_hop_affected(
            self.graph.a_hat_t,
            result.touched_rows,
            self.engine.spec.num_layers,
        )
        evicted = 0
        for layer, ids in enumerate(stale, start=1):
            evicted += cache.invalidate_at(layer, ids)
        return evicted, flush_equivalent

    def _invalidate_tiles(self, result: CommitResult) -> Tuple[int, int]:
        evicted = total = 0
        for cache, part, inv in self._tile_caches:
            rows = result.touched_rows
            if inv is not None:
                in_range = rows[rows < inv.size]
                rows = inv[in_range]
            e, t = cache.invalidate_rows(part, rows)
            evicted += e
            total += t
        return evicted, total

    def _rebalance(self) -> Tuple[bool, int]:
        """Recut routing after a commit; returns (triggered, moves)."""
        engine = self.engine
        n = self.graph.n
        if engine.partition.total == n:
            return False, 0
        # the vertex set grew: recut uniformly so routing covers the new
        # rows.
        old = engine._owner_of
        engine.partition = uniform_partition(n, engine.config.num_gpus)
        owners = engine.partition.owners(np.arange(n, dtype=np.int64))
        moves = int((owners[: old.size] != old).sum()) + (n - old.size)
        # keep degraded-mode routing: rows cut to a dead rank reroute
        # round-robin over the survivors, as ServingEngine._degrade does.
        alive = np.asarray(engine.alive_ranks, dtype=np.int64)
        dead_mask = ~np.isin(owners, alive)
        lost = np.nonzero(dead_mask)[0]
        if lost.size:
            owners[lost] = alive[np.arange(lost.size) % alive.size]
        engine._owner_of = owners
        return True, int(moves)

    def commit(self, arrival: float = 0.0) -> GenerationStats:
        """Merge pending mutations and carry the engine across the boundary."""
        engine = self.engine
        sim = engine.ctx.engine
        t0 = sim.now(engine._streams)
        span = None
        if self.telemetry is not None:
            span = self.telemetry.tracer.begin(
                f"dynamic.gen-{self.graph.generation + 1}",
                t0,
                correlation=f"gen-{self.graph.generation + 1}",
                category="dynamic",
            )
        try:
            result = self.graph.commit()
            evicted, flush_equivalent = self._delta_invalidate(result)
            tile_evicted, tile_total = self._invalidate_tiles(result)
            # swap the new generation into the live engine. Serving reads
            # only the features and the vertex count; the COO snapshot
            # behind ``engine.dataset`` is built if something reads it.
            engine.features = self.graph.features
            engine.num_vertices = self.graph.n
            engine._dataset = None
            engine._snapshot = self.graph.snapshot_dataset
            engine.a_hat_t = self.graph.a_hat_t
            engine._row_nnz = engine.a_hat_t.row_nnz().astype(np.int64)
            engine.degrees = self.graph.degrees()
            # captured warm schedules bake in the old shapes/nnz — force
            # a recapture rather than a stale replay.
            engine._warm_plan = None
            rebalanced, moves = self._rebalance()
        finally:
            if span is not None:
                self.telemetry.tracer.end(
                    span, sim.now(engine._streams)
                )
        stats = GenerationStats(
            generation=result.generation,
            arrival=arrival,
            mutations_applied=result.mutations_applied,
            rows_rebuilt=result.normalized_rows_rebuilt,
            cache_entries_delta_evicted=evicted,
            cache_flush_equivalent=flush_equivalent,
            tile_entries_delta_evicted=tile_evicted,
            tile_flush_equivalent=tile_total,
            rebalance_triggered=rebalanced,
            rebalance_moves=moves,
            num_vertices=self.graph.n,
            num_edges=self.graph.m,
        )
        self.generations.append(stats)
        if self.telemetry is not None:
            t = self.telemetry
            flight_note = getattr(t, "flight_note", None)
            if flight_note is not None:
                flight_note(
                    "cache_gen",
                    time=arrival,
                    generation=result.generation,
                    mutations=result.mutations_applied,
                    delta_evicted=evicted,
                    flush_equivalent=flush_equivalent,
                )
            t.inc("repro_dynamic_generations_total")
            t.inc(
                "repro_dynamic_mutations_applied_total",
                result.mutations_applied,
            )
            t.inc(
                "repro_dynamic_rows_rebuilt_total",
                result.normalized_rows_rebuilt,
            )
            t.inc("repro_dynamic_cache_entries_delta_evicted_total", evicted)
            t.inc(
                "repro_dynamic_cache_flush_equivalent_total",
                flush_equivalent,
            )
            t.inc(
                "repro_dynamic_tile_entries_delta_evicted_total",
                tile_evicted,
            )
            if rebalanced:
                t.inc("repro_dynamic_rebalances_total")
                t.inc("repro_dynamic_rebalance_moves_total", moves)
            t.set_gauge("repro_dynamic_vertices", self.graph.n)
            t.set_gauge("repro_dynamic_edges", self.graph.m)
        return stats

    # -- the mixed loop -------------------------------------------------------

    def run(
        self,
        requests: Sequence[InferenceRequest],
        mutations: MutationStream,
    ) -> DynamicServingResult:
        """Serve a query stream with mutation batches interleaved by arrival.

        Queries arriving before a batch's arrival are served against the
        batch's pre-commit generation; the batch then commits (one batch
        per generation) and later queries see the new graph. Ties go to
        the queries (reads observe the generation they raced).
        """
        if not requests:
            raise ConfigurationError("run: empty request stream")
        reqs = sorted(requests, key=lambda r: r.arrival)
        logits: Dict[int, np.ndarray] = {}
        i = 0
        for batch in mutations:
            j = i
            while j < len(reqs) and reqs[j].arrival <= batch.arrival:
                j += 1
            if j > i:
                logits.update(self.engine.serve(reqs[i:j]).logits)
                i = j
            self.apply(batch)
            self.commit(arrival=batch.arrival)
        if i < len(reqs):
            logits.update(self.engine.serve(reqs[i:]).logits)
        summary = self.engine.metrics.summary(
            cache_stats=self.engine.cache.stats
        )
        return DynamicServingResult(
            logits=logits,
            summary=summary,
            generations=tuple(self.generations),
        )
