"""CAGNET-like multi-GPU trainers and the Section 5.1 1.5D analysis.

CAGNET (Tripathy et al., SC'20) implements the same 1D row-distributed
algorithm MG-GCN uses, but — per the paper's comparison — with the
behaviours that cost it performance and memory:

* **no vertex permutation** (uniform tiles over the original ordering,
  so hub-concentrated graphs load-imbalance the stages);
* **no communication/computation overlap** (stages serialise);
* **always aggregate-first** — it broadcasts ``H`` (``d_in`` wide) and
  computes ``(A H) W``, even when ``d_out`` is far narrower;
* **no buffer reuse and no layer-0 backward skip** — PyTorch autograd
  materialises and retains the per-op intermediates;
* PyTorch-level per-op overhead and less-tuned kernels.

The 1.5D algorithm is modelled analytically (:func:`cagnet_15d_comm_time`)
exactly the way Section 5.1 reasons about it: broadcasts inside
replication groups at the group's aggregate link bandwidth plus an
inter-group reduction across the bisection links.

:class:`CAGNETTrainer` inherits its lifecycle (weights and Adam state,
the per-layer ``adam{l}`` op, epochs, ``evaluate``) from
:class:`~repro.core.trainer.Trainer`; this module holds only the
algorithm: its buffers and the op sequence of ``_forward``, ``_loss``
and ``_backward``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.comm.collectives import Communicator
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.spec import MachineSpec
from repro.hardware.topology import Topology
from repro.kernels.cost import KernelCosts
from repro.kernels.ops import gemm, relu_backward, softmax_cross_entropy
from repro.nn.model import GCNModelSpec
from repro.core.partitioner import DistributedGraph, partition_dataset
from repro.core.spmm_mg import distributed_spmm
from repro.core.trainer import Trainer

#: Kernel-efficiency knobs modelling CAGNET's PyTorch(+custom-kernel) stack.
CAGNET_KERNEL_COSTS = KernelCosts(
    gemm_flop_efficiency=0.65,
    stream_bw_efficiency=0.80,
    spmm_bw_efficiency=0.50,
    spmm_cache_hit_max=0.50,
    framework_overhead=25e-6,
)


class _SingleBufferAdapter:
    """Presents one broadcast buffer through the bc_view protocol."""

    def __init__(self, bc: DeviceTensor):
        self._bc = bc

    def bc_view(self, index: int, rows: int, cols: int) -> DeviceTensor:
        return self._bc.view2d(rows, cols)


class CAGNETTrainer(Trainer):
    """The CAGNET 1D algorithm on the simulated machine."""

    KERNEL_COSTS = CAGNET_KERNEL_COSTS

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        lr: float = 1e-2,
        seed: int = 0,
        permute: bool = False,
    ):
        super().__init__(dataset, model, machine, num_gpus, lr=lr, seed=seed)
        P = self.num_gpus
        self.graph: DistributedGraph = partition_dataset(
            self.ctx, dataset, permute=permute, seed=seed
        )
        self.comm = Communicator(self.ctx)

        # CAGNET stages the *full* graph on every device while slicing its
        # block rows: an int64 COO plus the coalesce copy (~40 B/nnz).
        # This transient reservation is what keeps the Proteins dataset
        # from running under CAGNET at any GPU count (paper §6.5); the
        # peak-memory meter sees it even though it is freed immediately.
        total_nnz = dataset.m
        for i in range(P):
            staging = self.ctx.device(i).pool.allocate(
                int(total_nnz) * 40, tag="staging/full-graph-coo"
            )
            staging.free()

        dims = model.layer_dims
        max_rows = self.graph.max_part_rows
        self._bc_adapters: List[_SingleBufferAdapter] = []
        # Eager buffers: AH (d_in wide!), Z and activation per layer stay
        # live for autograd; backward grads use two rotating scratches
        # (torch frees consumed grads); one broadcast buffer sized for
        # the widest thing CAGNET ever sends (H itself, d0 included).
        self.ah_bufs: List[List[DeviceTensor]] = []
        self.z_bufs: List[List[DeviceTensor]] = []
        self.act_bufs: List[List[DeviceTensor]] = []
        self.hwg_scratch: List[DeviceTensor] = []
        self.hgrad_scratch: List[DeviceTensor] = []
        max_din = max(dims[:-1])
        max_dout = max(dims[1:])
        for i in range(P):
            dev = self.ctx.device(i)
            rows = self.graph.local_rows(i)
            self.ah_bufs.append(
                [
                    dev.empty((rows, dims[l]), name=f"AH{l}", tag="buffer/eager")
                    for l in range(model.num_layers)
                ]
            )
            self.z_bufs.append(
                [
                    dev.empty((rows, dims[l + 1]), name=f"Z{l}", tag="buffer/eager")
                    for l in range(model.num_layers)
                ]
            )
            self.act_bufs.append(
                [
                    dev.empty((rows, dims[l + 1]), name=f"H{l}", tag="buffer/eager")
                    for l in range(model.num_layers)
                ]
            )
            self.hwg_scratch.append(
                dev.empty((rows, max_dout), name="HWG", tag="buffer/grad")
            )
            self.hgrad_scratch.append(
                dev.empty(
                    (rows, max(max_din, max_dout)), name="HG", tag="buffer/grad"
                )
            )
            if P > 1:
                bc = dev.empty((max_rows, max(dims)), name="BC", tag="buffer/broadcast")
            else:
                bc = dev.empty((1, 1), name="BC", tag="buffer/broadcast")
            self._bc_adapters.append(_SingleBufferAdapter(bc))

        self._init_weights()

    # -- passes --------------------------------------------------------------------

    def _forward(self) -> List[List[DeviceTensor]]:
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        inputs: Sequence[DeviceTensor] = self.graph.features
        outputs: List[List[DeviceTensor]] = []
        L = self.model.num_layers
        for l in range(L):
            d_in, d_out = self.model.dims_of(l)
            ah = [self.ah_bufs[i][l] for i in range(P)]
            # aggregate first, always: broadcast H (d_in wide).
            distributed_spmm(
                self.ctx,
                self.comm,
                self.cost_models,
                self.graph.forward_tiles,
                list(inputs),
                ah,
                self._bc_adapters,
                overlap=False,
                label=f"fwd{l}/spmm",
            )
            outs = []
            for i in range(P):
                z = self.z_bufs[i][l]
                gemm(
                    engine, self.cost_models[i],
                    self.ctx.device(i).compute_stream,
                    ah[i], self.weights[i][l], z, name=f"fwd{l}/gemm",
                )
                if l < L - 1:
                    act = self.act_bufs[i][l]
                    if z.data is not None:
                        np.maximum(z.data, 0.0, out=act.data)
                    engine.submit(
                        self.ctx.device(i).compute_stream,
                        f"fwd{l}/relu", "activation",
                        self.cost_models[i].elementwise_time(z.size, reads=1, writes=1),
                    )
                    outs.append(act)
                else:
                    outs.append(z)
            outputs.append(outs)
            inputs = outs
        return outputs

    def _loss(self, logits: Sequence[DeviceTensor],
              grads: Sequence[DeviceTensor]) -> Optional[float]:
        P = self.ctx.num_gpus
        total = 0.0
        for i in range(P):
            stream = self.ctx.device(i).compute_stream
            self.ctx.engine.submit(
                stream, "loss/log_softmax", "loss",
                self.cost_models[i].softmax_xent_time(logits[i].rows, logits[i].cols),
            )
            local, _ = softmax_cross_entropy(
                self.ctx.engine, self.cost_models[i], stream,
                logits[i], self.graph.labels[i], self.graph.train_masks[i],
                grad_out=grads[i], total_train=self.graph.num_train,
                name="loss/grad",
            )
            total += local
        if self.mode is Mode.SYMBOLIC:
            return None
        return total / self.graph.num_train

    def _backward(self, outputs: List[List[DeviceTensor]],
                  grads: Sequence[DeviceTensor]) -> None:
        P = self.ctx.num_gpus
        engine = self.ctx.engine
        L = self.model.num_layers
        self._adam_t += 1
        for l in range(L - 1, -1, -1):
            d_in, d_out = self.model.dims_of(l)
            if l < L - 1:
                for i in range(P):
                    relu_backward(
                        engine, self.cost_models[i],
                        self.ctx.device(i).compute_stream,
                        grads[i], outputs[l][i], name=f"bwd{l}/relu",
                    )
            hwg = [self.hwg_scratch[i].view2d(self.graph.local_rows(i), d_out)
                   for i in range(P)]
            # autograd always runs the backward SpMM, including layer 0.
            distributed_spmm(
                self.ctx,
                self.comm,
                self.cost_models,
                self.graph.backward_tiles,
                list(grads),
                hwg,
                self._bc_adapters,
                overlap=False,
                label=f"bwd{l}/spmm",
            )
            wg_events: Dict[int, List[Event]] = {}
            for i in range(P):
                h_in = (self.graph.features[i] if l == 0
                        else outputs[l - 1][i])
                ev = gemm(
                    engine, self.cost_models[i],
                    self.ctx.device(i).compute_stream,
                    h_in, hwg[i], self.wgrads[i][l],
                    transpose_a=True, name=f"bwd{l}/wgrad",
                )
                wg_events[i] = [ev]
            new_grads: List[DeviceTensor] = []
            if l > 0:
                for i in range(P):
                    hg = self.hgrad_scratch[i].view2d(
                        self.graph.local_rows(i), d_in
                    )
                    gemm(
                        engine, self.cost_models[i],
                        self.ctx.device(i).compute_stream,
                        hwg[i], self.weights[i][l], hg,
                        transpose_b=True, name=f"bwd{l}/hgrad",
                    )
                    new_grads.append(hg)
            allreduce_events = self.comm.allreduce(
                {i: self.wgrads[i][l] for i in range(P)},
                op="sum", deps_by_rank=wg_events, name=f"bwd{l}/allreduce_wg",
            )
            for i in range(P):
                self._adam_step(i, deps=[allreduce_events[i]], layer=l)
            if l > 0:
                grads = new_grads

    def _run_epoch(self) -> Optional[float]:
        outputs = self._forward()
        grads = [
            self.hgrad_scratch[i].view2d(
                self.graph.local_rows(i), self.model.layer_dims[-1]
            )
            for i in range(self.num_gpus)
        ]
        loss = self._loss(outputs[-1], grads)
        self._backward(outputs, grads)
        return loss


# ---------------------------------------------------------------------------
# Section 5.1: analytic 1D vs 1.5D communication costs
# ---------------------------------------------------------------------------


def cagnet_1d_comm_time(
    machine: MachineSpec, n: int, d: int, num_gpus: Optional[int] = None,
    itemsize: int = 4,
) -> float:
    """Per-SpMM communication of the 1D algorithm (Section 5.1).

    ``P`` stages each broadcast an ``(n/P) x d`` tile at the collective
    bandwidth of the full GPU set — the paper's ``P * nd/(P * B)`` term.
    """
    P = num_gpus or machine.num_gpus
    if P <= 1:
        return 0.0
    topo = Topology(machine)
    ranks = list(range(P))
    bw = topo.collective_bandwidth(ranks)
    tile_bytes = (n / P) * d * itemsize
    return P * (tile_bytes / bw)


def cagnet_15d_comm_time(
    machine: MachineSpec, n: int, d: int, num_gpus: Optional[int] = None,
    replication: int = 2, itemsize: int = 4,
) -> float:
    """Per-SpMM communication of the 1.5D algorithm with factor ``c``.

    GPUs form ``c`` replica groups of ``P/c``; each group runs ``P/c``
    broadcasts of ``(n/(P/c)) / c``... following the paper's accounting:
    two rounds of group-local broadcasts of ``n d / (P/c)``-row tiles,
    then a concurrent reduction of each GPU's ``n/(P/c)`` rows across the
    ``c`` replicas over the bisection links.
    """
    P = num_gpus or machine.num_gpus
    c = replication
    if P % c != 0 or c < 1:
        raise ConfigurationError(f"replication {c} must divide num_gpus {P}")
    if P <= 1 or c == 1:
        return cagnet_1d_comm_time(machine, n, d, P, itemsize)
    topo = Topology(machine)
    group_size = P // c
    group = list(range(group_size))
    group_bw = topo.collective_bandwidth(group)
    # P/c stages per round, c rounds run concurrently on disjoint groups;
    # total broadcast volume per GPU: (P/c) tiles of (n/(P/c)) x d / c.
    tile_bytes = (n / group_size) * d * itemsize
    bcast_time = (group_size / c) * (tile_bytes / group_bw)
    # inter-replica reduction: each GPU reduces its n/(P/c) x d rows with
    # its c-1 counterparts across the group boundary.
    other_group = list(range(group_size, min(2 * group_size, machine.num_gpus)))
    pair_bw = topo.bisection_bandwidth(group, other_group) / group_size
    reduce_time = (c - 1) * (tile_bytes / c) / pair_bw
    return bcast_time + reduce_time
