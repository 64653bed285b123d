"""The serving engine: online GCN inference on the virtual-GPU machine.

:class:`ServingEngine` is the inference-side counterpart of the MG-GCN
trainer. It restores weights from a checkpoint (no trainer, no optimizer
state), shards the normalised adjacency across the machine's virtual
GPUs with the same 1D row partitioner training uses, and answers
vertex-classification queries with a *partial* forward pass:

* a query for vertex ``v`` at an ``L``-layer model walks the layers top
  down, consulting the :class:`~repro.cache.lru.EmbeddingCache` at
  every level — a cached ``H^(l)[u]`` truncates the entire subtree below
  ``(u, l)``, so only the uncached frontier expands into its in-edge
  neighborhood;
* the uncached rows are then computed bottom up with gathered sub-CSR
  SpMMs over exactly the needed rows, reproducing the reference
  full-batch forward's arithmetic on that subset (same normalisation,
  same accumulation order per row — results agree to float32 rounding).

Timing rides the discrete-event engine: each served micro-batch submits
per-rank GeMM / gather / SpMM ops (tagged with the batch's correlation
id) whose simulated completion is the batch's service time. The cache is
warmed by one full-batch forward captured into an
:class:`~repro.plan.plan.ExecutionPlan`; re-warming after a weight
update replays the plan — the compute closure reads the live weights,
so the numerics follow the new model version while the schedule is
reused, the CUDA-Graphs pattern applied to serving.

Failures come from a declarative :class:`~repro.resilience.FaultPlan`:
when the simulated clock passes a device failure, the engine *degrades*
— the dead rank's vertices are rerouted to the survivors, its cache
partition is invalidated, the warm plan is dropped — and keeps serving
with identical logits (the maths is global; only placement and timing
change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.datasets.loader import Dataset
from repro.device.engine import SimContext
from repro.device.tensor import Mode
from repro.errors import ConfigurationError, RecoveryError
from repro.hardware.machines import dgx_a100
from repro.hardware.spec import MachineSpec
from repro.kernels.cost import CostModel
from repro.kernels.ops import _gemm, _relu, _spmm
from repro.nn.checkpoint import load_weights
from repro.nn.model import GCNModelSpec
from repro.plan.capture import PlanCapture
from repro.plan.plan import ExecutionPlan
from repro.resilience.faults import FaultPlan
from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.cache.lru import EmbeddingCache, pin_by_degree
from repro.serve.metrics import DegradeEvent, ServingMetrics
from repro.serve.workload import InferenceRequest
from repro.sparse.csr import CSRMatrix
from repro.sparse.normalize import gcn_normalize
from repro.sparse.partition import uniform_partition

_ITEMSIZE = np.dtype(FLOAT_DTYPE).itemsize
_LINK_LATENCY = 1.5e-6
#: Frontier GeMMs below this row count are zero-padded up to it. BLAS
#: picks its sgemm kernel (and hence the k-accumulation order of each
#: output row) by operand height: below this threshold different
#: heights produce ulp-different rows, at or above it rows are
#: height-invariant. Padding every short frontier to exactly this
#: height keeps the partial recompute on the stable kernel, so frontier
#: rows reproduce the full-batch forward's rows bit-for-bit regardless
#: of how many misses were batched together (zero rows don't feed into
#: the kept rows). Dynamic-graph delta invalidation leans on this: a
#: surviving cache entry must equal what a cold engine would compute,
#: whatever frontier shape either engine happened to use.
_GEMM_PAD_ROWS = 128


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving deployment."""

    machine: MachineSpec = field(default_factory=dgx_a100)
    num_gpus: int = 4
    #: embedding-cache capacity in entries ((vertex, layer) rows); 0
    #: disables caching — the cold configuration of the benchmarks.
    cache_entries: int = 0
    #: top-degree vertices exempt from LRU eviction (0 = no pinning).
    num_pinned: int = 0
    max_batch_size: int = 8
    #: ignored: the batcher is work-conserving and never holds a request
    #: (see :mod:`repro.serve.batcher`). Accepted only because the frozen
    #: ``bench/workloads.py`` still passes it; delete the field once the
    #: bench stops passing it.
    max_wait: float = 1e-3
    fault_plan: FaultPlan = field(default_factory=FaultPlan.empty)
    record_trace: bool = True

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError(
                f"num_gpus must be >= 1, got {self.num_gpus}"
            )
        if self.cache_entries < 0:
            raise ConfigurationError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.num_pinned < 0:
            raise ConfigurationError(
                f"num_pinned must be >= 0, got {self.num_pinned}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait < 0:
            raise ConfigurationError(
                f"max_wait must be >= 0, got {self.max_wait}"
            )


@dataclass(frozen=True)
class ServingResult:
    """Everything one :meth:`ServingEngine.serve` run produced."""

    #: request id -> ``(num_vertices, num_classes)`` logits.
    logits: Dict[int, np.ndarray]
    summary: Dict[str, float]


@dataclass
class _LayerWork:
    """Recompute accounting of one layer of one query (for timing)."""

    layer: int
    miss_ids: np.ndarray
    need_size: int
    d_in: int
    d_out: int


class ServingEngine:
    """Online GCN inference over cached embeddings and virtual GPUs."""

    def __init__(
        self,
        dataset: Dataset,
        weights: Sequence[np.ndarray],
        spec: GCNModelSpec,
        config: Optional[ServingConfig] = None,
        telemetry=None,
        slo=None,
    ):
        if dataset.is_symbolic:
            raise ConfigurationError("serving needs a functional dataset")
        config = config or ServingConfig()
        if spec.layer_dims[0] != dataset.d0:
            raise ConfigurationError(
                f"model input width {spec.layer_dims[0]} != dataset d0 "
                f"{dataset.d0}"
            )
        if spec.layer_dims[-1] != dataset.num_classes:
            raise ConfigurationError(
                f"model output width {spec.layer_dims[-1]} != num_classes "
                f"{dataset.num_classes}"
            )
        if len(weights) != spec.num_layers:
            raise ConfigurationError(
                f"{len(weights)} weight arrays for {spec.num_layers} layers"
            )
        self._dataset: Optional[Dataset] = dataset
        #: builds :attr:`dataset` when it is first read after a graph swap
        #: (see :class:`~repro.dynamic.DynamicServingEngine`).
        self._snapshot = None
        #: the served graph's input features and vertex count: the only
        #: dataset fields the serving path reads.
        self.features = dataset.features
        self.num_vertices = dataset.n
        self.spec = spec
        self.config = config
        self.weights: List[np.ndarray] = [
            np.asarray(w, dtype=FLOAT_DTYPE) for w in weights
        ]
        for l, w in enumerate(self.weights):
            if w.shape != spec.dims_of(l):
                raise ConfigurationError(
                    f"weight {l} shape {w.shape} != spec {spec.dims_of(l)}"
                )
        #: bumped on every weight swap; stamps cache entries.
        self.model_version = 0

        # normalised adjacency; the forward uses A_hat^T, like training.
        self.a_hat_t: CSRMatrix = gcn_normalize(dataset.adjacency).transpose()
        self._row_nnz = self.a_hat_t.row_nnz().astype(np.int64)
        n = dataset.n
        adj = dataset.adjacency
        self.degrees = (
            np.bincount(adj.rows, minlength=n)
            + np.bincount(adj.cols, minlength=n)
        ).astype(np.int64)

        # 1D shard placement: contiguous uniform ranges, as in training;
        # owner_of is the *live* routing table, rewritten on degrade.
        self.partition = uniform_partition(n, config.num_gpus)
        self._owner_of = self.partition.owners(np.arange(n, dtype=np.int64))

        #: optional shared :class:`repro.telemetry.Telemetry` hub — batch
        #: and warm spans plus ``repro_serving_*`` instruments report
        #: through it alongside training/replay/recovery.
        self.telemetry = telemetry
        self.ctx = SimContext(
            config.machine,
            num_gpus=config.num_gpus,
            mode=Mode.FUNCTIONAL,
            record_trace=config.record_trace,
            telemetry=telemetry,
        )
        self._set_alive(list(range(config.num_gpus)))
        self.cost = CostModel(config.machine.gpu)
        self.cache = EmbeddingCache(
            config.cache_entries,
            pinned=pin_by_degree(self.degrees, config.num_pinned),
        )
        self.metrics = ServingMetrics(
            registry=telemetry.registry if telemetry is not None else None
        )
        #: optional :class:`~repro.telemetry.slo.SLOMonitor` — burn
        #: rates update per served batch; a rising-edge breach dumps a
        #: flight-recorder postmortem when the hub carries a recorder.
        self.slo = slo
        if slo is not None:
            if telemetry is not None and slo.registry is None:
                slo.registry = telemetry.registry
            if getattr(telemetry, "flight", None) is not None:
                slo.on_breach(self._dump_on_breach)
        # deltas for hit-rate SLO accounting (cache stats are cumulative).
        self._slo_last_lookups = 0
        self._slo_last_hits = 0
        #: first degrade time; None while the full world is alive.
        self._degraded_since: Optional[float] = None
        self._warm_plan: Optional[ExecutionPlan] = None

    @property
    def dataset(self) -> Dataset:
        """The served graph as a :class:`Dataset`."""
        if self._dataset is None:
            self._dataset = self._snapshot()
        return self._dataset

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls,
        dataset: Dataset,
        path,
        config: Optional[ServingConfig] = None,
        telemetry=None,
    ) -> "ServingEngine":
        """Restore a serving engine from a checksummed checkpoint file."""
        weights, spec = load_weights(path)
        return cls(dataset, weights, spec, config=config, telemetry=telemetry)

    # -- model management -----------------------------------------------------

    def update_weights(self, weights: Sequence[np.ndarray]) -> int:
        """Swap in new weights; returns the new model version.

        Cached embeddings of the old version become stale lazily (the
        cache drops them on touch); the warm plan stays valid because
        its compute closure reads the live weights — replaying it
        re-warms under the new version with the captured schedule.
        """
        if len(weights) != self.spec.num_layers:
            raise ConfigurationError(
                f"{len(weights)} weight arrays for {self.spec.num_layers} "
                f"layers"
            )
        staged = [np.asarray(w, dtype=FLOAT_DTYPE) for w in weights]
        for l, w in enumerate(staged):
            if w.shape != self.spec.dims_of(l):
                raise ConfigurationError(
                    f"weight {l} shape {w.shape} != spec {self.spec.dims_of(l)}"
                )
        self.weights = staged
        self.model_version += 1
        return self.model_version

    def reload(self, path) -> int:
        """Hot-swap weights from a checkpoint (architecture must match)."""
        weights, spec = load_weights(path)
        if spec.layer_dims != self.spec.layer_dims:
            raise ConfigurationError(
                f"checkpoint architecture {spec.layer_dims} != serving "
                f"{self.spec.layer_dims}"
            )
        return self.update_weights(weights)

    # -- shard liveness -------------------------------------------------------

    @property
    def alive_ranks(self) -> Tuple[int, ...]:
        return tuple(self._alive)

    def _set_alive(self, ranks: List[int]) -> None:
        """Serve on ``ranks``; ``_streams`` lists their compute and comm
        streams, the set every batch synchronises."""
        self._alive = ranks
        self._streams = []
        for rank in ranks:
            device = self.ctx.device(rank)
            self._streams.append(device.compute_stream)
            self._streams.append(device.comm_stream)

    def _apply_faults(self, time: float) -> None:
        """Degrade for every device failure at or before ``time``."""
        plan = self.config.fault_plan
        if not plan.device_failures:
            return
        for rank in plan.failed_ranks_before(time):
            if rank in self._alive:
                self._degrade(rank, time)

    def _degrade(self, rank: int, time: float) -> None:
        """Lose ``rank``: reroute its vertices, drop its cache partition."""
        survivors = [r for r in self._alive if r != rank]
        if not survivors:
            raise RecoveryError(
                f"device failure on rank {rank} leaves no survivors"
            )
        self._set_alive(survivors)
        lost = np.nonzero(self._owner_of == rank)[0]
        # round-robin the orphaned shard over the survivors: keeps the
        # rerouted load balanced without re-partitioning live vertices.
        self._owner_of[lost] = np.asarray(survivors, dtype=np.int64)[
            np.arange(lost.size) % len(survivors)
        ]
        invalidated = self.cache.invalidate_vertices(lost)
        # the captured warm schedule submits ops on the dead device.
        self._warm_plan = None
        if self._degraded_since is None:
            self._degraded_since = time
        flight_note = getattr(self.telemetry, "flight_note", None)
        if flight_note is not None:
            flight_note(
                "degrade",
                time=time,
                rank=rank,
                rerouted=int(lost.size),
                invalidated=invalidated,
                survivors=len(survivors),
            )
        self.metrics.observe_degrade(
            DegradeEvent(
                rank=rank,
                time=time,
                rerouted_vertices=int(lost.size),
                invalidated_entries=invalidated,
            )
        )

    # -- partial forward (functional) ----------------------------------------

    def _sub_csr(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, CSRMatrix]:
        """``A_hat^T`` restricted to ``rows``, columns compacted.

        Returns ``(need, sub)`` where ``need`` is the sorted unique set
        of in-neighbors referenced by ``rows`` and ``sub`` is the
        ``(len(rows), len(need))`` CSR with columns remapped into
        ``need`` positions. Within each row the column order (and hence
        the accumulation order of the SpMM) is unchanged from the full
        matrix. No sort: ``need`` comes from a mark over the column
        range and columns remap through a position table, O(gathered
        entries + columns).
        """
        a = self.a_hat_t
        if rows.size == 1:
            lo, hi = a.indptr[rows[0]], a.indptr[rows[0] + 1]
            cols = a.indices[lo:hi]
            if cols.size < 2 or np.count_nonzero(cols[1:] <= cols[:-1]) == 0:
                # one row with strictly increasing columns (canonical
                # CSR): its columns are already ``need``, in order.
                sub = CSRMatrix(
                    (1, cols.size),
                    np.array([0, cols.size], dtype=np.int64),
                    np.arange(cols.size, dtype=a.indices.dtype),
                    a.vals[lo:hi],
                    validate=False,
                )
                return cols.astype(np.int64), sub
        starts = a.indptr[rows]
        lens = a.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        # positions in ``a`` of the rows' entries, concatenated in order
        flat = np.repeat(starts - indptr[:-1], lens) + np.arange(indptr[-1])
        cols = a.indices[flat]
        mark = np.zeros(a.shape[1], dtype=bool)
        mark[cols] = True
        need = mark.nonzero()[0]
        position = np.empty(a.shape[1], dtype=a.indices.dtype)
        position[need] = np.arange(need.size, dtype=a.indices.dtype)
        sub = CSRMatrix(
            (rows.size, need.size),
            indptr,
            position[cols],
            a.vals[flat],
            validate=False,
        )
        return need, sub

    def _embeddings_at(
        self,
        layer: int,
        vertices: np.ndarray,
        work_log: Optional[List[_LayerWork]] = None,
    ) -> np.ndarray:
        """Rows ``H^(layer)[vertices]`` (``layer`` 0 = input features).

        ``vertices`` must be sorted unique int64. Recurses top-down
        through the cache: misses at ``layer`` expand to their in-edge
        neighborhood at ``layer - 1``, hits truncate. Freshly computed
        rows are cached; ``work_log`` collects per-layer recompute
        volumes for the timing model.
        """
        if layer == 0:
            return self.features[vertices]
        hit_ids, miss_ids, hit_rows = self.cache.lookup(
            layer, vertices, self.model_version
        )
        d_out = self.spec.layer_dims[layer]
        if not miss_ids.size and hit_rows is not None:
            # every row hit: they come back in ``vertices`` order.
            return hit_rows.astype(FLOAT_DTYPE, copy=False)
        out = np.empty((vertices.size, d_out), dtype=FLOAT_DTYPE)
        if hit_ids.size:
            out[np.searchsorted(vertices, hit_ids)] = hit_rows
        if miss_ids.size:
            need, sub = self._sub_csr(miss_ids)
            prev = self._embeddings_at(layer - 1, need, work_log)
            w = self.weights[layer - 1]
            if 0 < prev.shape[0] < _GEMM_PAD_ROWS:
                padded = np.zeros(
                    (_GEMM_PAD_ROWS, prev.shape[1]), dtype=FLOAT_DTYPE
                )
                padded[: prev.shape[0]] = prev
                hw_full = np.empty(
                    (_GEMM_PAD_ROWS, w.shape[1]), dtype=FLOAT_DTYPE
                )
                _gemm(padded, w, hw_full)
                hw = hw_full[: prev.shape[0]]
            else:
                hw = np.empty((prev.shape[0], w.shape[1]), dtype=FLOAT_DTYPE)
                _gemm(prev, w, hw)
            fresh = np.empty((sub.shape[0], hw.shape[1]), dtype=hw.dtype)
            _spmm(sub, hw, fresh, accumulate=False)
            if layer < self.spec.num_layers:
                _relu(fresh)
            fresh = fresh.astype(FLOAT_DTYPE, copy=False)
            out[np.searchsorted(vertices, miss_ids)] = fresh
            self.cache.insert(layer, miss_ids, fresh, self.model_version)
            if work_log is not None:
                work_log.append(
                    _LayerWork(
                        layer=layer,
                        miss_ids=miss_ids,
                        need_size=int(need.size),
                        d_in=int(self.spec.layer_dims[layer - 1]),
                        d_out=int(d_out),
                    )
                )
        return out

    def query(self, vertices: Sequence[int]) -> np.ndarray:
        """Logits for ``vertices`` (functional only; no simulated time).

        The correctness entry point: returns exactly what :meth:`serve`
        would hand the request owning these vertices, using (and
        filling) the cache, without advancing the engine clock.
        """
        targets = np.asarray(list(vertices), dtype=np.int64)
        if targets.size == 0:
            raise ConfigurationError("query: empty vertex list")
        if targets.min() < 0 or targets.max() >= self.num_vertices:
            raise ConfigurationError(
                f"query: vertex out of range [0, {self.num_vertices})"
            )
        uniq = np.unique(targets)
        rows = self._embeddings_at(self.spec.num_layers, uniq)
        return rows[np.searchsorted(uniq, targets)]

    # -- timing ---------------------------------------------------------------

    def _submit_layer_ops(
        self, work: _LayerWork, correlation: Optional[str]
    ) -> None:
        """Timed per-rank ops for one layer's recompute volume.

        Each alive rank computes the miss rows it owns: a gather of the
        remote slice of the frontier over its injection link, the
        ``H W`` GeMM over the frontier rows, and the sub-CSR SpMM over
        its share of the nonzeros.
        """
        miss = work.miss_ids
        if miss.size == 1:
            # one row: its owner (always an alive rank) does all the work.
            v = miss[0]
            shares = ((int(self._owner_of[v]), 1, int(self._row_nnz[v])),)
        else:
            owners = self._owner_of[miss]
            num_ranks = self.config.num_gpus
            rows_per_rank = np.bincount(owners, minlength=num_ranks)
            nnz_per_rank = np.bincount(
                owners, weights=self._row_nnz[miss], minlength=num_ranks
            )
            shares = [
                (rank, int(rows_per_rank[rank]), int(nnz_per_rank[rank]))
                for rank in self._alive
                if rows_per_rank[rank]
            ]
        engine = self.ctx.engine
        machine = self.config.machine
        need, d_in, d_out = work.need_size, work.d_in, work.d_out
        # frontier slice each rank must pull from its peers: all but its
        # (uniform) share of the need set lives remotely.
        remote_rows = need - need // len(self._alive)
        gather_bytes = remote_rows * d_in * _ITEMSIZE
        gemm_time = self.cost.gemm_time(need, d_out, d_in)
        for rank, rows_r, nnz_r in shares:
            device = self.ctx.device(rank)
            gather_ev = engine.submit(
                device.comm_stream,
                f"serve.gather.l{work.layer}",
                "comm",
                gather_bytes / machine.injection_bandwidth(rank)
                + _LINK_LATENCY,
                nbytes=int(gather_bytes),
                correlation=correlation,
            )
            gemm_ev = engine.submit(
                device.compute_stream,
                f"serve.gemm.l{work.layer}",
                "gemm",
                gemm_time,
                correlation=correlation,
                flops=2.0 * need * d_out * d_in,
            )
            engine.submit(
                device.compute_stream,
                f"serve.spmm.l{work.layer}",
                "spmm",
                self.cost.spmm_time(rows_r, nnz_r, d_out, dense_rows=need),
                deps=(gather_ev, gemm_ev),
                correlation=correlation,
                flops=2.0 * nnz_r * d_out,
            )

    def _execute_batch(self, batch: MicroBatch) -> Dict[int, np.ndarray]:
        """Run one micro-batch: functional logits + simulated timing."""
        dispatch = batch.dispatch_time
        for s in self._streams:
            if s.ready_time < dispatch:
                s.ready_time = dispatch
        correlation = f"batch-{batch.batch_id}"
        requests = batch.requests
        single = len(requests) == 1 and len(requests[0].vertices) == 1
        if single:
            uniq = np.array(requests[0].vertices, dtype=np.int64)
        else:
            uniq = np.unique(np.asarray(batch.vertices, dtype=np.int64))
        if uniq[0] < 0 or uniq[-1] >= self.num_vertices:
            raise ConfigurationError(
                f"batch {batch.batch_id}: vertex out of range "
                f"[0, {self.num_vertices})"
            )
        work_log: List[_LayerWork] = []
        rows = self._embeddings_at(self.spec.num_layers, uniq, work_log)
        # deepest layer first: the recursion appends top-down, the
        # timeline runs bottom-up.
        for work in reversed(work_log):
            self._submit_layer_ops(work, correlation)
        # readout: even an all-hit batch spends time streaming the cached
        # logits out, so service time is never exactly zero.
        if uniq.size == 1:
            targets_per_rank = ((int(self._owner_of[uniq[0]]), 1),)
        else:
            per_rank = np.bincount(
                self._owner_of[uniq], minlength=self.config.num_gpus
            )
            targets_per_rank = [
                (rank, int(per_rank[rank]))
                for rank in self._alive
                if per_rank[rank]
            ]
        engine = self.ctx.engine
        width = self.spec.layer_dims[-1]
        for rank, count in targets_per_rank:
            engine.submit(
                self.ctx.device(rank).compute_stream,
                "serve.readout",
                "activation",
                self.cost.elementwise_time(count * width),
                correlation=correlation,
                flops=float(count * width),
            )
        if single:
            # ``rows`` is this call's own array: no gather needed.
            return {requests[0].request_id: rows}
        out: Dict[int, np.ndarray] = {}
        for request in requests:
            targets = np.asarray(request.vertices, dtype=np.int64)
            out[request.request_id] = rows[np.searchsorted(uniq, targets)]
        return out

    # -- cache warming --------------------------------------------------------

    def _functional_warm(self) -> float:
        """Full-batch forward filling the cache at the live version.

        Insertion order is degree-ascending within each layer and the
        output layer goes last, so under LRU pressure the cache retains
        the hottest vertices at the shallowest-recompute (topmost)
        layers. Returns 0.0 (closure convention: replayable, no loss).
        """
        order = np.argsort(self.degrees, kind="stable").astype(np.int64)
        h = self.features
        L = self.spec.num_layers
        for l, w in enumerate(self.weights):
            hw = np.empty((h.shape[0], w.shape[1]), dtype=FLOAT_DTYPE)
            _gemm(np.asarray(h, dtype=FLOAT_DTYPE), w, hw)
            ahw = np.empty((self.a_hat_t.shape[0], hw.shape[1]), dtype=hw.dtype)
            _spmm(self.a_hat_t, hw, ahw, accumulate=False)
            if l < L - 1:
                _relu(ahw)
            h = ahw
            self.cache.insert(l + 1, order, h[order], self.model_version)
        return 0.0

    def _submit_warm_ops(self, compute) -> None:
        """Timed full-batch forward ops (one GeMM/bcast/SpMM per rank/layer)."""
        engine = self.ctx.engine
        machine = self.config.machine
        n = self.num_vertices
        rows_per_rank = np.bincount(
            self._owner_of, minlength=self.config.num_gpus
        )
        nnz_per_rank = np.bincount(
            self._owner_of, weights=self._row_nnz,
            minlength=self.config.num_gpus,
        )
        for l in range(self.spec.num_layers):
            d_in = self.spec.layer_dims[l]
            d_out = self.spec.layer_dims[l + 1]
            for rank in self._alive:
                rows_r = int(rows_per_rank[rank])
                if rows_r == 0:
                    continue
                device = self.ctx.device(rank)
                gemm_ev = engine.submit(
                    device.compute_stream,
                    f"warm.gemm.l{l}",
                    "gemm",
                    self.cost.gemm_time(rows_r, d_out, d_in),
                    compute=compute,
                    correlation="warm",
                    flops=2.0 * rows_r * d_out * d_in,
                )
                compute = None
                nbytes = rows_r * d_out * _ITEMSIZE
                bcast_ev = engine.submit(
                    device.comm_stream,
                    f"warm.bcast.l{l}",
                    "comm",
                    nbytes / machine.injection_bandwidth(rank)
                    + _LINK_LATENCY,
                    deps=(gemm_ev,),
                    nbytes=int(nbytes),
                    correlation="warm",
                )
                engine.submit(
                    device.compute_stream,
                    f"warm.spmm.l{l}",
                    "spmm",
                    self.cost.spmm_time(
                        rows_r, int(nnz_per_rank[rank]), d_out, dense_rows=n
                    ),
                    deps=(bcast_ev,),
                    correlation="warm",
                    flops=2.0 * float(nnz_per_rank[rank]) * d_out,
                )

    def warm_cache(self) -> float:
        """Fill the cache with a full-batch forward; returns its end time.

        The first warm runs eagerly under a :class:`PlanCapture`; later
        warms (after :meth:`update_weights` / :meth:`reload`) replay the
        captured :class:`ExecutionPlan` — the closure recomputes the
        embeddings under the live weights and version, the schedule is
        reused verbatim. Degrading drops the plan (its ops target the
        dead device), so the next warm re-captures over the survivors.
        """
        if self.cache.capacity == 0:
            raise ConfigurationError(
                "warm_cache() on a disabled cache (cache_entries=0)"
            )
        engine = self.ctx.engine
        streams = self._streams
        t0 = engine.barrier(streams)
        telemetry = self.telemetry
        span = None
        if telemetry is not None:
            span = telemetry.tracer.begin(
                "serve.warm", t0, correlation="warm", category="serving"
            )
        try:
            if self._warm_plan is not None:
                result = self._warm_plan.replay(engine, t0)
                for s in streams:
                    s.ready_time = max(s.ready_time, result.end_time)
                end = result.end_time
            else:
                capture = PlanCapture(engine)
                capture.begin()
                try:
                    self._functional_warm()
                    self._submit_warm_ops(self._functional_warm)
                finally:
                    capture.end()
                self._warm_plan = capture.finalize()
                end = engine.barrier(streams)
        finally:
            if span is not None:
                telemetry.tracer.end(span, engine.now(streams))
        if telemetry is not None:
            telemetry.inc("repro_serving_warms_total")
        return end

    # -- SLO accounting -------------------------------------------------------

    def _dump_on_breach(self, breach) -> None:
        """Flight-recorder hook: freeze a postmortem at the breach."""
        dump = getattr(self.telemetry, "dump_postmortem", None)
        if dump is not None:
            dump(
                "slo_breach",
                time=breach.time,
                slo=breach.slo,
                burn_rates=list(breach.burn_rates),
            )

    def _observe_slo(self, batch, completion: float) -> None:
        """Feed one served batch into the attached SLO monitor."""
        slo = self.slo
        if slo is None:
            return
        if "serving_latency" in slo:
            for req in batch.requests:
                slo.observe(
                    "serving_latency", completion - req.arrival, completion
                )
        if "serving_hit_rate" in slo:
            stats = self.cache.stats
            lookups = stats.lookups - self._slo_last_lookups
            hits = stats.hits - self._slo_last_hits
            self._slo_last_lookups = stats.lookups
            self._slo_last_hits = stats.hits
            slo.observe_outcomes(
                "serving_hit_rate",
                completion,
                bad=lookups - hits,
                total=lookups,
            )
        if "serving_degraded" in slo:
            degraded = len(self._alive) < self.config.num_gpus
            slo.observe(
                "serving_degraded", 1.0 if degraded else 0.0, completion
            )

    # -- the serving loop -----------------------------------------------------

    def serve(
        self, requests: Sequence[InferenceRequest]
    ) -> ServingResult:
        """Serve a request stream to completion; returns logits + SLOs.

        Drives the :class:`MicroBatcher` pull loop with a single
        in-flight execution slot: each batch's completion time is the
        next batch's earliest dispatch. Device failures from the fault
        plan are applied at dispatch boundaries — the first batch whose
        dispatch lies past a failure time triggers degraded mode before
        it executes.
        """
        if not requests:
            raise ConfigurationError("serve: empty request stream")
        batcher = MicroBatcher(requests, self.config.max_batch_size)
        engine = self.ctx.engine
        server_free = engine.now(self._streams)
        logits: Dict[int, np.ndarray] = {}
        telemetry = self.telemetry
        if telemetry is not None:
            set_section = getattr(telemetry, "set_flight_section", None)
            if set_section is not None:
                set_section("serve")
        while (batch := batcher.next_batch(server_free)) is not None:
            self._apply_faults(batch.dispatch_time)
            span = None
            if telemetry is not None:
                span = telemetry.tracer.begin(
                    f"serve.batch-{batch.batch_id}",
                    batch.dispatch_time,
                    correlation=f"batch-{batch.batch_id}",
                    category="serving",
                    batch_size=batch.size,
                )
            try:
                logits.update(self._execute_batch(batch))
                completion = engine.barrier(self._streams)
            finally:
                if span is not None:
                    telemetry.tracer.end(span, engine.now(self._streams))
            self.metrics.observe_batch(batch, completion)
            self._observe_slo(batch, completion)
            if telemetry is not None and self._degraded_since is not None:
                telemetry.set_gauge(
                    "repro_serving_degraded_seconds",
                    completion - self._degraded_since,
                )
            server_free = completion
        return ServingResult(
            logits=logits,
            summary=self.metrics.summary(cache_stats=self.cache.stats),
        )
