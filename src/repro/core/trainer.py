"""The trainer skeleton and the MG-GCN trainer.

:class:`Trainer` is the lifecycle every full-batch trainer shares (MG-GCN
and the baselines of :mod:`repro.baselines`): the simulated machine and
per-rank cost models, the per-rank flat weight/gradient/Adam buffers,
the Adam op, epoch bookkeeping, ``fit`` and ``evaluate``. A subclass
supplies its algorithm.

One :class:`MGGCNTrainer` owns a simulated machine, the 1D-distributed
graph, the L+3 shared buffers per GPU, replicated weights + Adam state,
and runs epochs with:

* per-layer computation-order selection (§4.4),
* multi-stage broadcast SpMM with optional comm/compute overlap (§4.3),
  or, per layer, the replicated-operand allgather SpMM when the
  parallelism planner prices it cheaper (``TrainerConfig.schedule``),
* fused gradient/activation buffer reuse (§4.2),
* on the default path, the input features aggregated once: ``X`` and
  ``Â^T`` never change, so construction overwrites each rank's ``X`` in
  place with its rows of ``Â^T X`` and layer 0 becomes one GeMM with an
  exact, SpMM-free backward — the never-stale limit of §4.4's
  first-layer skip, which the paper's schedule keeps as an option,
* one weight sync per epoch: only ``W`` is replicated (§4.1), and each
  rank's weights, gradients and Adam moments are per-layer segments of
  flat buffers, so one weight-gradient allreduce after the last wgrad
  GEMM and one Adam step per rank cover every layer.

In FUNCTIONAL mode the trainer computes real numbers — its weights after
``k`` epochs match :class:`~repro.nn.reference.ReferenceGCN` — while the
engine accounts simulated time. In SYMBOLIC mode the same code path
runs on metadata-only tensors (paper-scale graphs).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.collectives import Communicator
from repro.device.device import VirtualGPU
from repro.device.engine import SimContext
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.machines import dgx1
from repro.hardware.spec import MachineSpec
from repro.kernels.cost import CostModel, KernelCosts
from repro.kernels.ops import (
    adam_step_op,
    gemm_many,
    gemm_relu_backward_many,
    relu_many,
    softmax_cross_entropy,
)
from repro.cache import CachePolicy, TrainingTileCache
from repro.config import FLOAT_DTYPE, FLOAT_SIZE
from repro.nn.buffers import SharedBufferManager
from repro.nn.init import init_weights
from repro.nn.model import GCNModelSpec
from repro.parallel.hierarchy import HierarchicalCommunicator
from repro.parallel.planner import ParallelismPlan, ParallelismPlanner
from repro.parallel.strategies import LAYER_SCHEMES, allgather_spmm
from repro.plan import ExecutionPlan, PlanCapture, PlanStats
from repro.sparse.symbolic import SymbolicCSR
from repro.core.order import ComputeOrder, broadcast_width, choose_forward_order
from repro.core.partitioner import (
    DistributedGraph,
    partition_dataset,
    stage_degree_scores,
)
from repro.core.spmm_mg import distributed_spmm
from repro.core.stats import EpochStats


#: collective-bandwidth multiplier while overlapped with compute (both
#: sides slow down when sharing HBM, §6.3).
OVERLAP_COMM_DERATE = 0.9


def _flat_buffer(
    dev: VirtualGPU, shapes: Sequence[Tuple[int, int]], name: str, tag: str
) -> Tuple[DeviceTensor, List[DeviceTensor]]:
    """One zeroed flat buffer on ``dev`` and its per-layer segments."""
    flat = dev.zeros((sum(a * b for a, b in shapes),), name=name, tag=tag)
    views = []
    offset = 0
    for l, shape in enumerate(shapes):
        views.append(flat.segment(offset, shape, name=f"{name}{l}"))
        offset += shape[0] * shape[1]
    return flat, views


@dataclass(frozen=True)
class TrainerConfig:
    """Feature switches and hyper-parameters of one trainer instance.

    The three paper optimisations (``permute``, ``overlap``,
    ``order_optimization``/``first_layer_skip``) default to on; the
    ablation benches flip them individually. ``schedule="1d"`` runs the
    paper's staged broadcast on every layer; the default lets the
    parallelism planner pick each layer's scheme.

    On the default path (``schedule=None`` and no training cache) the
    trainer aggregates the input features once at construction, so
    layer 0 has no backward SpMM to skip: its gradient is the exact
    ``(Â^T X)^T G``. That trainer's ``config`` then reads
    ``first_layer_skip=False`` whatever was passed.
    """

    permute: bool = True
    overlap: bool = True
    order_optimization: bool = True
    first_layer_skip: bool = True
    lr: float = 1e-2
    seed: int = 0
    record_trace: bool = True
    #: optional :class:`repro.resilience.FaultInjector` threaded through
    #: the SimContext into the engine, topology and collectives.
    fault_injector: Optional[object] = None
    #: per-collective watchdog, seconds (None = no timeout detection).
    collective_timeout: Optional[float] = None
    #: enable the training-time remote-embedding cache with this
    #: staleness bound (None = disabled). 0 = bit-exact write-through
    #: refresh every epoch; k > 0 = cached rows may be up to k epochs
    #: stale between refreshes (see ``docs/caching.md``).
    cache_staleness_epochs: Optional[int] = None
    #: per-rank byte budget for cached rows (None = auto: half of one
    #: epoch's forward broadcast bytes).
    cache_budget_bytes: Optional[int] = None
    #: per-layer distributed-SpMM scheme, from
    #: :data:`~repro.parallel.strategies.LAYER_SCHEMES`. None = the
    #: :class:`~repro.parallel.planner.ParallelismPlanner`'s choice per
    #: layer (``1d`` everywhere with the training cache, which caches
    #: staged broadcasts); a scheme name = that scheme on every layer; a
    #: tuple = one scheme per layer. One GPU always runs its one local
    #: SpMM.
    schedule: Union[None, str, Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.collective_timeout is not None and self.collective_timeout <= 0:
            raise ConfigurationError(
                f"collective_timeout must be positive, got {self.collective_timeout}"
            )
        if (
            self.cache_staleness_epochs is not None
            and self.cache_staleness_epochs < 0
        ):
            raise ConfigurationError(
                f"cache_staleness_epochs must be >= 0, "
                f"got {self.cache_staleness_epochs}"
            )
        if self.cache_budget_bytes is not None and self.cache_budget_bytes <= 0:
            raise ConfigurationError(
                f"cache_budget_bytes must be positive, "
                f"got {self.cache_budget_bytes}"
            )
        if self.schedule is not None:
            if isinstance(self.schedule, str):
                schemes = (self.schedule,)
            else:
                schemes = tuple(self.schedule)
                object.__setattr__(self, "schedule", schemes)
            unknown = sorted(set(schemes) - set(LAYER_SCHEMES))
            if unknown or not schemes:
                raise ConfigurationError(
                    f"schedule needs schemes from {LAYER_SCHEMES}, "
                    f"got {self.schedule!r}"
                )
            if (
                "1d_allgather" in schemes
                and self.cache_staleness_epochs is not None
            ):
                raise ConfigurationError(
                    "the training cache caches staged broadcasts; it cannot "
                    "run with a 1d_allgather layer in the schedule"
                )


class Trainer:
    """The lifecycle every full-batch trainer shares.

    Owns the input checks, the :class:`SimContext`, one
    :class:`CostModel` per rank, the per-rank flat weight/gradient/Adam
    buffers, the Adam op, epoch bookkeeping, ``fit`` and ``evaluate``.
    A subclass supplies its algorithm: :meth:`_run_epoch` (one eager
    forward, loss and backward; returns the loss) and, unless it keeps
    the 1D row layout, :meth:`_output_rows`. It calls
    :meth:`_init_weights` where its allocation order wants the weights.
    """

    #: the trainer family's kernel-cost profile.
    KERNEL_COSTS = KernelCosts()

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        lr: float = 1e-2,
        seed: int = 0,
        record_trace: bool = True,
        fault_injector: Optional[object] = None,
    ):
        if model.layer_dims[0] != dataset.d0:
            raise ConfigurationError(
                f"model input width {model.layer_dims[0]} != dataset d0 {dataset.d0}"
            )
        if model.layer_dims[-1] != dataset.num_classes:
            raise ConfigurationError(
                f"model output width {model.layer_dims[-1]} != "
                f"num_classes {dataset.num_classes}"
            )
        self.dataset = dataset
        self.model = model
        self.lr = lr
        self.seed = seed
        machine = machine or dgx1()
        self.ctx = SimContext(
            machine,
            num_gpus=num_gpus,
            mode=Mode.SYMBOLIC if dataset.is_symbolic else Mode.FUNCTIONAL,
            record_trace=record_trace,
            fault_injector=fault_injector,
        )
        self.cost_models: List[CostModel] = [
            CostModel(machine.gpu, self.KERNEL_COSTS)
            for _ in range(self.ctx.num_gpus)
        ]
        self._adam_t = 0
        self.epochs_trained = 0

    def _init_weights(self) -> None:
        """Allocate the replicated weights, gradients and Adam moments.

        One copy per GPU (accounted on every device; functionally
        identical across ranks). Each rank holds one flat buffer per
        kind, and the per-layer ``(d_l, d_{l+1})`` tensors
        ``weights[rank][layer]`` are segments of it. Symbolic tensors
        carry no values, so only functional mode draws the initial
        weights.
        """
        shapes = [self.model.dims_of(l) for l in range(self.model.num_layers)]
        #: per rank, the flat ``(W, WG, m, v)`` buffers.
        self._flat: List[Tuple[DeviceTensor, ...]] = []
        self.weights: List[List[DeviceTensor]] = []
        self.wgrads: List[List[DeviceTensor]] = []
        self.adam_m: List[List[DeviceTensor]] = []
        self.adam_v: List[List[DeviceTensor]] = []
        for i in range(self.num_gpus):
            dev = self.ctx.device(i)
            w, w_views = _flat_buffer(dev, shapes, "W", "weights")
            g, g_views = _flat_buffer(dev, shapes, "WG", "weights")
            m, m_views = _flat_buffer(dev, shapes, "m", "adam")
            v, v_views = _flat_buffer(dev, shapes, "v", "adam")
            self._flat.append((w, g, m, v))
            self.weights.append(w_views)
            self.wgrads.append(g_views)
            self.adam_m.append(m_views)
            self.adam_v.append(v_views)
        if self.mode is Mode.FUNCTIONAL:
            init = init_weights(self.model.layer_dims, seed=self.seed)
            for rank_weights in self.weights:
                for w, w0 in zip(rank_weights, init):
                    w.load_(w0)

    # -- convenience --------------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        return self.ctx.num_gpus

    @property
    def mode(self) -> Mode:
        return self.ctx.mode

    def get_weights(self) -> List[np.ndarray]:
        """Host copies of the (rank-0) weights, functional mode only."""
        return [w.copy_to_numpy() for w in self.weights[0]]

    # -- Adam ------------------------------------------------------------------------

    def _adam_step(
        self, rank: int, deps: Sequence[Event] = (), layer: Optional[int] = None
    ) -> None:
        """One Adam step on ``rank``: the op ``adam`` over the flat
        buffers (every layer), or ``adam{layer}`` over one layer's
        segments."""
        cost = self.cost_models[rank]
        stream = self.ctx.device(rank).compute_stream
        if layer is None:
            name = "adam"
            w, wg, m, v = self._flat[rank]
        else:
            name = f"adam{layer}"
            w, wg, m, v = (self.weights[rank][layer], self.wgrads[rank][layer],
                           self.adam_m[rank][layer], self.adam_v[rank][layer])
        if self.mode is Mode.FUNCTIONAL:
            adam_step_op(
                self.ctx.engine,
                cost,
                stream,
                w.data,
                wg.data,
                m.data,
                v.data,
                # callable, not the bare int: a captured closure must read
                # the live step count on every replayed epoch.
                t=lambda: self._adam_t,
                lr=self.lr,
                beta1=0.9,
                beta2=0.999,
                eps=1e-8,
                deps=deps,
                name=name,
            )
        else:
            self.ctx.engine.submit(
                stream,
                name,
                "adam",
                cost.adam_time(w.size),
                deps=deps,
                flops=10.0 * w.size,
            )

    # -- epochs ------------------------------------------------------------------------

    def _run_epoch(self) -> Optional[float]:
        """Issue one epoch's ops (forward, loss, backward and Adam);
        returns the loss (None in symbolic mode)."""
        raise NotImplementedError

    def train_epoch(self) -> EpochStats:
        """One eager full-batch epoch; returns its stats."""
        return self._train_epoch_eager()

    def _train_epoch_eager(self) -> EpochStats:
        """The eagerly-scheduled epoch (reference path)."""
        t0 = self.ctx.synchronize()
        trace_start = len(self.ctx.engine.trace)
        loss = self._run_epoch()
        t1 = self.ctx.synchronize()
        return self._finish_epoch(t0, t1, loss, trace_start)

    def _finish_epoch(
        self, t0: float, t1: float, loss: Optional[float], trace_start: int
    ) -> EpochStats:
        self.epochs_trained += 1
        return EpochStats(
            epoch_time=t1 - t0,
            loss=loss,
            peak_memory=self.ctx.peak_memory(),
            trace=self.ctx.engine.trace[trace_start:],
        )

    def fit(self, epochs: int) -> List[EpochStats]:
        """Train ``epochs`` epochs; returns per-epoch stats."""
        if epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
        return [self.train_epoch() for _ in range(epochs)]

    # -- evaluation ---------------------------------------------------------------------

    def _output_rows(self, split: str) -> Tuple[list, list, list]:
        """Run a fresh forward pass; per rank holding output rows, its
        ``(logits, labels, split mask)`` arrays.

        This default is the 1D row layout of ``self.graph``, where every
        rank holds output rows.
        """
        logits = self._forward()[-1]
        return (
            [t.data for t in logits],
            self.graph.labels,
            getattr(self.graph, f"{split}_masks"),
        )

    def evaluate(self, split: str = "test") -> float:
        """Accuracy over ``split`` ('train' | 'val' | 'test'), functional only.

        Runs a fresh forward pass (clobbers the activation buffers, which
        is safe between epochs) and scores the output rows.
        """
        if self.mode is not Mode.FUNCTIONAL:
            raise ConfigurationError("evaluate() requires functional mode")
        if split not in ("train", "val", "test"):
            raise ConfigurationError(f"unknown split {split!r}")
        correct = 0
        count = 0
        for logits, labels, mask in zip(*self._output_rows(split)):
            if not mask.any():
                continue
            pred = np.argmax(logits[mask], axis=1)
            correct += int((pred == labels[mask]).sum())
            count += int(mask.sum())
        if count == 0:
            raise ConfigurationError(f"empty {split!r} split")
        return correct / count


class MGGCNTrainer(Trainer):
    """Multi-GPU full-batch GCN trainer on a simulated machine.

    ``setup_sim_time`` is the simulated time construction took: the
    one-time aggregation of the input features on the default path, 0
    otherwise. Epoch 1 starts there, and so does a fault plan's clock.
    """

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        config: Optional[TrainerConfig] = None,
    ):
        self.config = config or TrainerConfig()
        super().__init__(
            dataset,
            model,
            machine,
            num_gpus,
            lr=self.config.lr,
            seed=self.config.seed,
            record_trace=self.config.record_trace,
            fault_injector=self.config.fault_injector,
        )
        machine = self.ctx.machine
        P = self.ctx.num_gpus
        #: the planner's plan when it chose the schedule, else None.
        self.parallelism_plan: Optional[ParallelismPlan] = None
        #: the scheme each layer's distributed SpMM runs.
        self.schedule: Tuple[str, ...] = self._resolve_schedule()
        #: layer 0 reads ``Â^T X`` (built at construction) through one
        #: GeMM: the default path, with no training cache.
        self.features_aggregated: bool = (
            self.config.schedule is None
            and self.config.cache_staleness_epochs is None
        )
        if self.features_aggregated:
            self.config = replace(self.config, first_layer_skip=False)
        self.graph: DistributedGraph = partition_dataset(
            self.ctx, dataset, permute=self.config.permute,
            seed=self.config.seed,
        )
        # While a broadcast overlaps an SpMM, the SpMM loses the HBM share
        # the DMA engines consume (link injection bw / HBM bw).
        link_share = (
            machine.injection_bandwidth(0) / machine.gpu.memory_bandwidth
            if P > 1
            else 0.0
        )
        self._overlap_bw_fraction = max(1.0 - link_share, 0.1)
        # Node-aware collectives (intra-node rings + inter-node trees); on
        # a single node they are the flat ring. A flat ring across nodes —
        # the scaling wall — is a ``Communicator`` assigned to
        # ``self.comm`` before epoch 1.
        self.comm: Communicator = HierarchicalCommunicator(
            self.ctx,
            bw_derate=OVERLAP_COMM_DERATE if self.config.overlap else 1.0,
            timeout=self.config.collective_timeout,
        )

        dims = model.layer_dims
        bc_dim = max(dims[1:])
        bc_rows = self.graph.max_part_rows if P > 1 else 0
        self.buffers: List[SharedBufferManager] = [
            SharedBufferManager(
                self.ctx.device(i),
                local_rows=self.graph.local_rows(i),
                layer_dims=dims,
                bc_rows=bc_rows,
                bc_dim=bc_dim if P > 1 else 0,
                overlap=self.config.overlap,
            )
            for i in range(P)
        ]

        # One flat buffer per kind, so one allreduce and one Adam step per
        # epoch cover every layer.
        self._init_weights()

        #: training-time remote-tile cache (forward broadcasts only);
        #: None when disabled or pointless (single GPU).
        self.training_cache: Optional[TrainingTileCache] = None
        self._cache_active = False
        if self.config.cache_staleness_epochs is not None and P > 1:
            budget = self.config.cache_budget_bytes
            if budget is None:
                # auto: half of one epoch's forward broadcast bytes —
                # big enough to matter, small enough to leave headroom.
                budget = self._forward_broadcast_bytes() // 2
            self.training_cache = TrainingTileCache(
                self.ctx,
                CachePolicy(
                    staleness_epochs=self.config.cache_staleness_epochs,
                    budget_bytes=budget,
                ),
                stage_scores=stage_degree_scores(self.graph, "forward"),
            )

        #: per-rank operand buffers of the allgather scheme (None if unused).
        self._gather_buffers: Optional[List[DeviceTensor]] = None
        self._init_allgather_state()

        #: captured epoch plans keyed by :meth:`_plan_signature` — one per
        #: cache phase of the current world and cache generation.
        self._plans: Dict[tuple, ExecutionPlan] = {}
        self.plan_stats = PlanStats()

        injector = self.config.fault_injector
        # the set-up pass is the only op construction submits; no fault
        # fires during it, and a plan's times count from its end.
        with (injector.held() if injector is not None
              else contextlib.nullcontext()):
            if self.features_aggregated:
                self._aggregate_features()
        #: simulated seconds of the one-time set-up pass.
        self.setup_sim_time: float = self.ctx.synchronize()
        if injector is not None and injector.origin is None:
            injector.origin = self.setup_sim_time

    def _forward_broadcast_bytes(self) -> int:
        """Full forward broadcast bytes of one epoch (auto-budget base)."""
        sizes = self.graph.part.sizes()
        total = 0
        for l in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(l)
            w = broadcast_width(d_in, d_out, self.config.order_optimization)
            total += sum(sizes) * w * FLOAT_SIZE
        return total

    # -- the per-layer schedule ----------------------------------------------

    def _resolve_schedule(self) -> Tuple[str, ...]:
        """Each layer's SpMM scheme, from ``config.schedule``."""
        L = self.model.num_layers
        schedule = self.config.schedule
        if isinstance(schedule, str):
            schedule = (schedule,) * L
        elif schedule is not None and len(schedule) != L:
            raise ConfigurationError(
                f"schedule has {len(schedule)} schemes, model has {L} layers"
            )
        if self.num_gpus == 1:
            return ("1d",) * L  # one local SpMM, nothing to distribute
        if schedule is not None:
            return schedule
        if self.config.cache_staleness_epochs is not None:
            return ("1d",) * L
        self.parallelism_plan = ParallelismPlanner(
            self.dataset,
            self.model,
            self.ctx.machine,
            num_gpus=self.num_gpus,
            overlap=self.config.overlap,
            order_optimization=self.config.order_optimization,
            first_layer_skip=self.config.first_layer_skip,
        ).plan()
        return tuple(self.parallelism_plan.schemes)

    def _init_allgather_state(self) -> None:
        """Gather buffers, and the device bytes of the wide tile rows, if
        any layer runs an allgather SpMM.

        Each allgather layer reads its rank's tiles in place, but a
        device kernel multiplies one wide ``rows_i x n`` CSR matrix per
        direction; those bytes are reserved in the pool so the memory
        model matches the planner's guard.
        """
        widths = []
        for l, scheme in enumerate(self.schedule):
            if scheme != "1d_allgather" or (
                l == 0 and self.features_aggregated
            ):
                continue  # no allgather SpMM on this layer
            d_in, d_out = self.model.dims_of(l)
            widths.append(
                broadcast_width(d_in, d_out, self.config.order_optimization)
            )
            if l > 0 or not self.config.first_layer_skip:
                widths.append(d_out)  # backward gradient rows
        if not widths:
            return
        P = self.num_gpus
        n = sum(self.graph.local_rows(i) for i in range(P))
        self._gather_buffers = []
        for i in range(P):
            dev = self.ctx.device(i)
            self._gather_buffers.append(
                dev.empty((n, max(widths)), name=f"AG{i}", tag="allgather")
            )
            for row in (self.graph.forward_tiles[i],
                        self.graph.backward_tiles[i]):
                wide = SymbolicCSR(
                    (row[0].shape[0], n), sum(t.nnz for t in row)
                )
                dev.pool.allocate(wide.nbytes, tag="adjacency-wide")

    # -- the one-time aggregation --------------------------------------------

    def _aggregate_features(self) -> None:
        """Overwrite every rank's ``X`` in place with its rows of ``Â^T X``.

        Simulated as the staged SpMM over the forward tiles, one column
        block of ``X`` at a time through each rank's ``HW`` scratch (the
        blocks are at most as wide as it), each block's result copied
        over its columns of ``X``, which are dead once the block's pass
        ends: ``Â^T X`` lives where ``X`` was, so peak memory does not
        move. The simulated pass runs over metadata-only stand-ins (no
        data, no allocation), so one stage plan without compute closures
        serves every block of a width; the numbers come from one host
        SpMM per tile, in stage order.
        """
        P = self.num_gpus
        features = self.graph.features
        tiles = self.graph.forward_tiles
        d0 = self.model.layer_dims[0]
        blocks = math.ceil(d0 / self.buffers[0].hw.cols)
        base, extra = divmod(d0, blocks)
        widths = [base + (k < extra) for k in range(blocks)]

        def stand_ins(width: int, name: str) -> List[DeviceTensor]:
            return [
                DeviceTensor((self.graph.local_rows(i), width), FLOAT_DTYPE,
                             self.ctx.device(i), Mode.SYMBOLIC, None, None,
                             name=f"{name}{i}")
                for i in range(P)
            ]

        views = {w: (stand_ins(w, "X"), stand_ins(w, "HW"))
                 for w in set(widths)}
        label = "setup/aggregate"
        copies: Optional[Dict[int, List[Event]]] = None
        for width in widths:
            sources, outputs = views[width]
            # the next block's broadcasts reuse the broadcast buffers, so
            # they wait for the previous block's copies.
            done = distributed_spmm(
                self.ctx, self.comm, self.cost_models, tiles, sources,
                outputs, self.buffers, overlap=self.config.overlap,
                overlap_bw_fraction=self._overlap_bw_fraction,
                deps_by_rank=copies, label=label,
            )
            copies = {}
            for i in range(P):
                cost = self.cost_models[i]
                copies[i] = [self.ctx.engine.submit(
                    self.ctx.device(i).compute_stream, f"{label}/copy",
                    "memcpy",
                    cost.elementwise_time(outputs[i].size, reads=1, writes=1),
                    deps=done[i][-1:],
                )]
        getattr(self.ctx, "spmm_plan_cache", {}).pop((label, None), None)
        if self.mode is Mode.FUNCTIONAL:
            aggregated = []
            for i in range(P):
                out = np.zeros(features[i].shape, dtype=FLOAT_DTYPE)
                for j in range(P):
                    tiles[i][j].spmm_into(features[j].data, out)
                aggregated.append(out)
            for x, out in zip(features, aggregated):
                x.load_(out)

    # -- distributed SpMM hook -----------------------------------------------

    def _run_spmm(
        self,
        layer: int,
        direction: str,
        tiles,
        sources: Sequence[DeviceTensor],
        outputs: Sequence[DeviceTensor],
        deps_by_rank: Optional[Dict[int, List[Event]]] = None,
        label: str = "spmm",
        operand_ready: Optional[Dict[int, List[Event]]] = None,
    ) -> Dict[int, List[Event]]:
        """Run one distributed SpMM (``direction`` is "fwd" or "bwd").

        The single seam every parallelism scheme goes through: the
        layer's scheme in :attr:`schedule` picks the replicated-operand
        allgather SpMM or the paper's 1D multi-stage broadcast.

        ``operand_ready`` are the events that produced ``sources``, for
        call sites that pass no ``deps_by_rank``. The allgather waits for
        them. The staged schedule does not: its first broadcast is
        ordered only behind the previous SpMM's broadcasts on the comm
        stream, which is how its pinned epoch times and the paper
        figures were simulated (a known optimistic gap of at most one
        stage's broadcast per SpMM).
        """
        if self.schedule[layer] == "1d_allgather":
            return allgather_spmm(
                self.ctx,
                self.comm,
                self.cost_models,
                tiles,
                sources,
                outputs,
                self._gather_buffers,
                deps_by_rank=deps_by_rank or operand_ready,
                label=label,
            )
        return distributed_spmm(
            self.ctx,
            self.comm,
            self.cost_models,
            tiles,
            sources,
            outputs,
            self.buffers,
            overlap=self.config.overlap,
            overlap_bw_fraction=self._overlap_bw_fraction,
            deps_by_rank=deps_by_rank,
            label=label,
            cache=self._spmm_cache(direction),
        )

    def _spmm_cache(self, direction: str) -> Optional[TrainingTileCache]:
        """The tile cache for this SpMM, or None.

        Only forward broadcasts are cached (activations re-broadcast the
        same rows every epoch; backward gradient tiles change freely),
        and only inside ``train_epoch`` — ``evaluate``/``predict`` run
        exact forward passes.
        """
        if direction != "fwd" or not self._cache_active:
            return None
        return self.training_cache

    # -- forward pass ----------------------------------------------------------------

    def _forward(self) -> List[List[DeviceTensor]]:
        """Run the forward pass; returns per-layer per-rank outputs.

        Each per-rank kernel loop is one group across ranks
        (:func:`gemm_many` / :func:`relu_many`), and each distributed
        SpMM one stage-pipelined :meth:`_run_spmm` call.
        """
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        streams = [self.ctx.device(i).compute_stream for i in range(P)]
        costs = self.cost_models
        inputs: Sequence[DeviceTensor] = self.graph.features
        ready: Optional[Dict[int, List[Event]]] = None  # produced `inputs`
        layer_outputs: List[List[DeviceTensor]] = []
        for l in range(self.model.num_layers):
            d_in, d_out = self.model.dims_of(l)
            order = choose_forward_order(
                d_in, d_out, self.config.order_optimization
            )
            outs = [self.buffers[i].layer_output(l) for i in range(P)]
            W = [self.weights[i][l] for i in range(P)]
            if l == 0 and self.features_aggregated:
                gemm_many(
                    engine,
                    [(streams[i], costs[i], inputs[i], W[i], outs[i], ())
                     for i in range(P)],
                    name="fwd0/gemm",
                )
            elif order is ComputeOrder.GEMM_FIRST:
                hw_views = [self.buffers[i].hw_view(d_out) for i in range(P)]
                events = gemm_many(
                    engine,
                    [(streams[i], costs[i], inputs[i], W[i], hw_views[i], ())
                     for i in range(P)],
                    name=f"fwd{l}/gemm",
                )
                self._run_spmm(
                    l,
                    "fwd",
                    self.graph.forward_tiles,
                    hw_views,
                    outs,
                    deps_by_rank={i: [ev] for i, ev in enumerate(events)},
                    label=f"fwd{l}/spmm",
                )
            else:
                ah_views = [self.buffers[i].hw_view(d_in) for i in range(P)]
                self._run_spmm(
                    l,
                    "fwd",
                    self.graph.forward_tiles,
                    list(inputs),
                    ah_views,
                    label=f"fwd{l}/spmm",
                    operand_ready=ready,
                )
                gemm_many(
                    engine,
                    [(streams[i], costs[i], ah_views[i], W[i], outs[i], ())
                     for i in range(P)],
                    name=f"fwd{l}/gemm",
                )
            if l < self.model.num_layers - 1:
                relu_events = relu_many(
                    engine,
                    [(streams[i], costs[i], outs[i], ()) for i in range(P)],
                    name=f"fwd{l}/relu",
                )
                ready = {i: [ev] for i, ev in enumerate(relu_events)}
            layer_outputs.append(outs)
            inputs = outs
        return layer_outputs

    # -- loss --------------------------------------------------------------------------

    def _loss(
        self, logits: Sequence[DeviceTensor]
    ) -> Tuple[Optional[float], Dict[int, List[Event]]]:
        """Masked softmax-CE; the gradient replaces the logits in place.

        Returns the loss and, per rank, the event that wrote the gradient.
        """
        P = self.ctx.num_gpus
        total = 0.0
        ready: Dict[int, List[Event]] = {}
        for i in range(P):
            local_loss, ev = softmax_cross_entropy(
                self.ctx.engine,
                self.cost_models[i],
                self.ctx.device(i).compute_stream,
                logits[i],
                self.graph.labels[i],
                self.graph.train_masks[i],
                grad_out=logits[i],
                total_train=self.graph.num_train,
                name="loss",
            )
            total += local_loss
            ready[i] = [ev]
        if self.mode is Mode.SYMBOLIC:
            return None, ready
        return total / self.graph.num_train, ready

    # -- backward pass --------------------------------------------------------------------

    def _backward(
        self,
        layer_outputs: List[List[DeviceTensor]],
        ready: Dict[int, List[Event]],
    ) -> None:
        """Backward pass and Adam; ``ready`` wrote the loss gradient.

        Every layer's weight gradient is a segment of its rank's flat
        ``WG`` buffer, so after the layer loop one allreduce syncs them
        all and one Adam step per rank updates every layer. Each layer's
        ``hgrad`` is issued before that Adam, so it reads the pre-update
        ``W``.
        """
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        streams = [self.ctx.device(i).compute_stream for i in range(P)]
        costs = self.cost_models
        L = self.model.num_layers
        self._adam_t += 1
        wg_events: Dict[int, List[Event]] = {i: [] for i in range(P)}
        for l in range(L - 1, -1, -1):
            d_in, d_out = self.model.dims_of(l)
            grads = layer_outputs[l]  # holds AHW_G^(l) (mask already applied)
            if l == 0 and (
                self.config.first_layer_skip or self.features_aggregated
            ):
                # §4.4 identity scaling; exact on aggregated features,
                # where h_in is already Â^T X.
                hwg: Sequence[DeviceTensor] = grads
            else:
                hwg_views = [self.buffers[i].hw_view(d_out) for i in range(P)]
                self._run_spmm(
                    l,
                    "bwd",
                    self.graph.backward_tiles,
                    list(grads),
                    hwg_views,
                    label=f"bwd{l}/spmm",
                    operand_ready=ready,
                )
                hwg = hwg_views
            h_in = (
                self.graph.features if l == 0 else layer_outputs[l - 1]
            )
            events = gemm_many(
                engine,
                [(streams[i], costs[i], h_in[i], hwg[i], self.wgrads[i][l],
                  ()) for i in range(P)],
                transpose_a=True,
                name=f"bwd{l}/wgrad",
            )
            for i, ev in enumerate(events):
                wg_events[i].append(ev)
            # Propagate H_G into the previous layer's buffer, fusing the
            # ReLU mask of layer l-1's stored activation.
            if l > 0:
                hgrad_events = gemm_relu_backward_many(
                    engine,
                    [(streams[i], costs[i], hwg[i], self.weights[i][l],
                      layer_outputs[l - 1][i], ())
                     for i in range(P)],
                    transpose_b=True,
                    name=f"bwd{l}/hgrad",
                )
                ready = {i: [ev] for i, ev in enumerate(hgrad_events)}
        allreduce_events = self.comm.allreduce(
            {i: self._flat[i][1] for i in range(P)},
            op="sum",
            deps_by_rank=wg_events,
            name="bwd/allreduce_wg",
        )
        for i in range(P):
            self._adam_step(i, deps=[allreduce_events[i]])

    # -- epoch loop --------------------------------------------------------------------------

    def train_epoch(self) -> EpochStats:
        """One full-batch epoch; returns its stats.

        The first epoch of a world is captured into an
        :class:`~repro.plan.ExecutionPlan` and later epochs replay it
        (bit-identical trace, loss, and weights; see
        ``docs/performance.md``). Epochs run eagerly, and any plan is
        dropped, while a non-trivial fault plan is active: faults must
        surface through eager scheduling. A changed world signature
        (partitioning, model dims, schedule flags, cache generation)
        recaptures.

        With the training cache enabled, the epoch counter advances here
        (phase: refresh vs serve) and forward broadcasts go through the
        cache for the duration of the epoch; the per-epoch hit/byte
        counters are flushed to telemetry (when a hub is attached) after
        the epoch. The cache phase is part of the plan signature, so at
        ``cache_staleness_epochs > 0`` one refresh plan and one serve
        plan are captured and both replay; see ``docs/caching.md``.
        """
        if self.training_cache is not None:
            self.training_cache.begin_epoch()
            self._cache_active = True
            try:
                stats = self._train_epoch_planned()
            finally:
                self._cache_active = False
            self._flush_cache_telemetry()
            return stats
        return self._train_epoch_planned()

    def _train_epoch_planned(self) -> EpochStats:
        """Capture/replay dispatch (the pre-cache ``train_epoch`` body)."""
        if not self._capture_allowed():
            # never replay through faults — they must surface eagerly.
            self.invalidate_plan()
            self.plan_stats.eager_epochs += 1
            return self._train_epoch_eager()
        sig = self._plan_signature()
        plan = self._plans.get(sig)
        if plan is None:
            # plans of another world or cache generation are stale.
            stale = [key for key in self._plans if key[0] != sig[0]]
            for key in stale:
                del self._plans[key]
            self.plan_stats.invalidations += len(stale)
            return self._capture_epoch(sig)
        return self._replay_epoch(plan)

    def _run_epoch(self) -> Optional[float]:
        layer_outputs = self._forward()
        loss, ready = self._loss(layer_outputs[-1])
        self._backward(layer_outputs, ready)
        return loss

    def _capture_epoch(self, sig) -> EpochStats:
        """Run one eager epoch while recording it into a plan."""
        t0 = self.ctx.synchronize()
        trace_start = len(self.ctx.engine.trace)
        capture = PlanCapture(self.ctx.engine)
        capture.begin()
        try:
            loss = self._run_epoch()
        finally:
            capture.end()
        t1 = self.ctx.synchronize()
        self._plans[sig] = capture.finalize()
        self.plan_stats.captures += 1
        return self._finish_epoch(t0, t1, loss, trace_start)

    def _replay_epoch(self, plan: ExecutionPlan) -> EpochStats:
        """Re-execute a captured plan instead of eager scheduling."""
        t0 = self.ctx.synchronize()
        trace_start = len(self.ctx.engine.trace)
        # _backward normally advances the Adam step; the captured closures
        # read it through their callable ``t``.
        self._adam_t += 1
        result = plan.replay(self.ctx.engine, t0)
        t1 = self.ctx.synchronize()
        self.plan_stats.replays += 1
        loss = (
            None
            if self.mode is Mode.SYMBOLIC
            else result.loss_sum / self.graph.num_train
        )
        return self._finish_epoch(t0, t1, loss, trace_start)

    def _flush_cache_telemetry(self) -> None:
        """Push the cache's per-epoch counters into the telemetry hub."""
        telemetry = getattr(self.ctx.engine, "telemetry", None)
        cache = self.training_cache
        if telemetry is None or cache is None:
            return
        epoch = cache.epoch
        telemetry.inc("repro_cache_epochs_total", phase=cache.phase)
        telemetry.inc("repro_cache_rows_hit_total", epoch.hit_rows)
        telemetry.inc("repro_cache_rows_missed_total", epoch.miss_rows)
        telemetry.inc("repro_cache_bytes_saved_total", epoch.bytes_saved)
        telemetry.set_gauge("repro_cache_hit_rate", epoch.hit_rate)
        telemetry.set_gauge(
            "repro_cache_resident_bytes", float(cache.resident_bytes)
        )
        flight_note = getattr(telemetry, "flight_note", None)
        if flight_note is not None:
            flight_note(
                "cache_epoch",
                phase=cache.phase,
                hit_rate=epoch.hit_rate,
                bytes_saved=epoch.bytes_saved,
            )

    # -- plan lifecycle ------------------------------------------------------------------------

    def _capture_allowed(self) -> bool:
        injector = self.config.fault_injector
        return injector is None or injector.is_trivial

    def _plan_signature(self):
        """Everything a captured plan's validity depends on.

        ``(world, phase)``: weights and Adam state are *not* part of it —
        closures read them in place — but the partitioning, tensor
        geometry, schedule-shaping flags and the training cache's
        generation are, since any of them changing means the captured op
        DAG no longer describes the epoch. The cache phase is kept apart:
        the plans of every phase of one world stay valid side by side.
        """
        P = self.ctx.num_gpus
        cache = self.training_cache
        world = (
            P,
            tuple(self.model.layer_dims),
            tuple(self.graph.local_rows(i) for i in range(P)),
            tuple(f.shape for f in self.graph.features),
            self.config.overlap,
            self.config.order_optimization,
            self.config.first_layer_skip,
            self.features_aggregated,
            self.schedule,
            None if cache is None else cache.generation,
            self.mode,
        )
        return world, None if cache is None else cache.phase

    def invalidate_plan(self) -> None:
        """Drop every captured plan (next eligible epoch recaptures)."""
        self.plan_stats.invalidations += len(self._plans)
        self._plans.clear()

    # -- evaluation ---------------------------------------------------------------------------

    def predict(self) -> np.ndarray:
        """Argmax class predictions for every vertex, in the dataset's
        ORIGINAL vertex order (the §5.2 permutation is inverted), so the
        output aligns with ``dataset.labels``. Functional mode only."""
        if self.mode is not Mode.FUNCTIONAL:
            raise ConfigurationError("predict() requires functional mode")
        logits = self._forward()[-1]
        parts = [np.argmax(logits[i].data, axis=1) for i in range(self.ctx.num_gpus)]
        permuted_order = np.concatenate(parts)
        if self.graph.perm is None:
            return permuted_order
        # permuted_order[perm[v]] is vertex v's prediction
        return permuted_order[self.graph.perm]
