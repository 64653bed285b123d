"""A full (functional + costed) CAGNET 1.5D trainer.

Section 5.1 of the paper *analyses* the 1.5D algorithm of CAGNET
(Tripathy et al., SC'20) and decides not to implement it — it halves
the broadcast volume but doubles memory and, on DGX-1's asymmetric
mesh, loses to 1D on the inter-replica reduction. Because our substrate
makes experiments cheap, we implement the algorithm fully so §5.1's
analytic conclusion can be checked against *measured* simulated epochs
(see ``benchmarks/test_sec51_partitioning_analysis.py``).

Algorithm (replication factor ``c``, ``P = R x c`` GPUs in a grid of
``R`` rows by ``c`` replica layers; GPU ``g = l * R + i``):

* the adjacency's block-row ``i`` (all ``R`` column tiles) and the
  feature rows ``H^i`` are stored on every layer's GPU ``(i, l)`` —
  ``c``-fold replication (the memory cost the paper cites);
* an SpMM runs the ``R`` broadcast stages split across layers: layer
  ``l`` handles stages ``j`` with ``j mod c == l``, broadcasting ``H^j``
  within its own R-GPU row group and accumulating partials;
* the ``c`` partial results for each row block are then summed with an
  allreduce across the replica-layer groups (the step that crosses the
  DGX-1 quad boundary).

Everything else (GeMM, loss, Adam, weight allreduce) is data-parallel
over the ``R`` row blocks, executed redundantly by every replica layer
— exactly how a replication-based implementation behaves. The
weights, the ``adam{l}`` op, epochs and ``evaluate`` (over replica
layer 0) come from :class:`~repro.core.trainer.Trainer`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.comm.collectives import Communicator
from repro.config import FLOAT_DTYPE
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.spec import MachineSpec
from repro.kernels.ops import gemm, relu_backward, softmax_cross_entropy, spmm
from repro.nn.model import GCNModelSpec
from repro.core.trainer import Trainer
from repro.sparse.normalize import gcn_normalize
from repro.sparse.partition import uniform_partition, tile_grid
from repro.sparse.permutation import apply_permutation, permute_rows, random_permutation
from repro.sparse.symbolic import SymbolicCSR
from repro.baselines.cagnet import CAGNET_KERNEL_COSTS


class CAGNET15DTrainer(Trainer):
    """The CAGNET 1.5D algorithm on the simulated machine."""

    KERNEL_COSTS = CAGNET_KERNEL_COSTS

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        replication: int = 2,
        lr: float = 1e-2,
        seed: int = 0,
        permute: bool = False,
    ):
        super().__init__(dataset, model, machine, num_gpus, lr=lr, seed=seed)
        P = self.num_gpus
        c = int(replication)
        if c < 1 or P % c != 0:
            raise ConfigurationError(
                f"replication {c} must divide the GPU count {P}"
            )
        self.c = c
        self.R = P // c

        # communicator groups: one per replica layer (row broadcasts) and
        # one per row block (cross-layer reductions).
        self.layer_comms: List[Communicator] = [
            Communicator(self.ctx, ranks=[l * self.R + i for i in range(self.R)])
            for l in range(c)
        ]
        self.replica_comms: List[Communicator] = [
            Communicator(self.ctx, ranks=[l * self.R + i for l in range(c)])
            for i in range(self.R)
        ]
        self.world_comm = Communicator(self.ctx)

        self._build_graph(permute, seed)
        self._build_buffers()
        self._init_weights()

    # -- setup ----------------------------------------------------------------

    def _gpu(self, i: int, l: int) -> int:
        """Flat rank of grid position (row block i, replica layer l)."""
        return l * self.R + i

    def _build_graph(self, permute: bool, seed: int) -> None:
        ds = self.dataset
        self.part = uniform_partition(ds.n, self.R)
        mode = self.ctx.mode
        if mode is Mode.FUNCTIONAL:
            adj = ds.adjacency
            features = ds.features
            labels, train = ds.labels, ds.train_mask
            val, test = ds.val_mask, ds.test_mask
            if permute:
                perm = random_permutation(ds.n, seed=seed)
                adj = apply_permutation(adj, perm)
                features = permute_rows(features, perm)
                labels = permute_rows(labels, perm)
                train = permute_rows(train, perm)
                val = permute_rows(val, perm)
                test = permute_rows(test, perm)
            a_hat = gcn_normalize(adj)
            a_hat_t = a_hat.transpose()
            fwd_tiles = tile_grid(a_hat_t, self.part, self.part)
            bwd_tiles = tile_grid(a_hat, self.part, self.part)
        else:
            def sym_tile(i: int, j: int) -> SymbolicCSR:
                area = self.part.size(i) * self.part.size(j)
                nnz = int(round(ds.m * area / (ds.n * ds.n)))
                return SymbolicCSR((self.part.size(i), self.part.size(j)), nnz)

            fwd_tiles = [[sym_tile(i, j) for j in range(self.R)]
                         for i in range(self.R)]
            bwd_tiles = [[sym_tile(i, j) for j in range(self.R)]
                         for i in range(self.R)]
            features = labels = train = val = test = None

        self.fwd_tiles = fwd_tiles
        self.bwd_tiles = bwd_tiles
        #: features[(i, l)] — the H^i replica on layer l.
        self.features: Dict[int, DeviceTensor] = {}
        self.labels: Dict[int, Optional[np.ndarray]] = {}
        self.train_masks: Dict[int, Optional[np.ndarray]] = {}
        self.val_masks: Dict[int, Optional[np.ndarray]] = {}
        self.test_masks: Dict[int, Optional[np.ndarray]] = {}
        for i in range(self.R):
            r0, r1 = self.part.part(i)
            for l in range(self.c):
                g = self._gpu(i, l)
                dev = self.ctx.device(g)
                if mode is Mode.FUNCTIONAL:
                    self.features[g] = dev.from_numpy(
                        np.ascontiguousarray(features[r0:r1], dtype=FLOAT_DTYPE),
                        name=f"X{i}@{l}", tag="features",
                    )
                    self.labels[g] = labels[r0:r1].copy()
                    self.train_masks[g] = train[r0:r1].copy()
                    self.val_masks[g] = val[r0:r1].copy()
                    self.test_masks[g] = test[r0:r1].copy()
                else:
                    self.features[g] = dev.symbolic(
                        (self.part.size(i), ds.d0), name=f"X{i}@{l}",
                        tag="features",
                    )
                    self.labels[g] = None
                    self.train_masks[g] = None
                    self.val_masks[g] = None
                    self.test_masks[g] = None
                # adjacency replicated per layer (the c-fold memory cost)
                tile_bytes = sum(t.nbytes for t in fwd_tiles[i]) + sum(
                    t.nbytes for t in bwd_tiles[i]
                )
                dev.pool.allocate(tile_bytes, tag="adjacency")

    def _build_buffers(self) -> None:
        dims = self.model.layer_dims
        max_rows = max(self.part.sizes())
        self.ah_bufs: Dict[int, List[DeviceTensor]] = {}
        self.z_bufs: Dict[int, List[DeviceTensor]] = {}
        self.act_bufs: Dict[int, List[DeviceTensor]] = {}
        self.partial: Dict[int, DeviceTensor] = {}
        self.hwg_scratch: Dict[int, DeviceTensor] = {}
        self.hgrad_scratch: Dict[int, DeviceTensor] = {}
        self.bc: Dict[int, DeviceTensor] = {}
        max_d = max(dims)
        for g in range(self.ctx.num_gpus):
            dev = self.ctx.device(g)
            rows = self.part.size(g % self.R)
            self.ah_bufs[g] = [
                dev.empty((rows, dims[l]), name=f"AH{l}", tag="buffer/eager")
                for l in range(self.model.num_layers)
            ]
            self.z_bufs[g] = [
                dev.empty((rows, dims[l + 1]), name=f"Z{l}", tag="buffer/eager")
                for l in range(self.model.num_layers)
            ]
            self.act_bufs[g] = [
                dev.empty((rows, dims[l + 1]), name=f"H{l}", tag="buffer/eager")
                for l in range(self.model.num_layers)
            ]
            self.partial[g] = dev.empty((rows, max_d), name="partial",
                                        tag="buffer/partial")
            self.hwg_scratch[g] = dev.empty((rows, max(dims[1:])), name="HWG",
                                            tag="buffer/grad")
            self.hgrad_scratch[g] = dev.empty((rows, max_d), name="HG",
                                              tag="buffer/grad")
            self.bc[g] = dev.empty((max_rows, max_d), name="BC",
                                   tag="buffer/broadcast")

    # -- the 1.5D distributed SpMM -----------------------------------------------

    def _spmm_15d(
        self,
        tiles: Sequence[Sequence[object]],
        sources: Dict[int, DeviceTensor],
        outputs: Dict[int, DeviceTensor],
        width: int,
        label: str,
    ) -> None:
        """``outputs[(i,*)] = sum_j tiles[i][j] @ sources[(j,*)]``.

        Stages are split across replica layers; partials are reduced
        across the layer groups at the end.
        """
        engine = self.ctx.engine
        R, c = self.R, self.c
        # zero the partial accumulators (first handled stage overwrites,
        # but a layer may handle zero stages when c > R).
        partials: Dict[int, DeviceTensor] = {}
        for g in range(self.ctx.num_gpus):
            rows = self.part.size(g % R)
            view = self.partial[g].view2d(rows, width)
            view.fill_(0.0)
            engine.submit(
                self.ctx.device(g).compute_stream, f"{label}/zero", "memset",
                self.cost_models[g].memset_time(view.nbytes),
            )
            partials[g] = view

        for l in range(c):
            comm = self.layer_comms[l]
            my_stages = [j for j in range(R) if j % c == l]
            prev_spmm: Dict[int, Event] = {}
            for j in my_stages:
                src = sources[self._gpu(j, l)]
                dsts = {
                    self._gpu(i, l): self.bc[self._gpu(i, l)].view2d(
                        src.rows, src.cols
                    )
                    for i in range(R)
                    if i != j
                }
                # single receive buffer per GPU: the next broadcast must
                # wait until the previous stage's SpMM finished reading
                # it (CAGNET has no double buffering).
                bcast_deps = {g: [ev] for g, ev in prev_spmm.items()}
                events = comm.broadcast(
                    root=self._gpu(j, l), src=src, dsts=dsts,
                    deps_by_rank=bcast_deps,
                    stage=j, name=f"{label}/bcast[{j}]",
                )
                for i in range(R):
                    g = self._gpu(i, l)
                    operand = src if i == j else dsts[g]
                    ev = spmm(
                        engine, self.cost_models[g],
                        self.ctx.device(g).compute_stream,
                        tiles[i][j], operand, partials[g],
                        accumulate=True, deps=[events[g]],
                        stage=j, name=f"{label}[{j}]",
                    )
                    prev_spmm[g] = ev

        # reduce partials across replica layers, result on every replica.
        for i in range(R):
            self.replica_comms[i].allreduce(
                {self._gpu(i, l): partials[self._gpu(i, l)] for l in range(c)},
                op="sum", name=f"{label}/reduce",
            )
        # copy the reduced partial into the destination buffers
        for g in range(self.ctx.num_gpus):
            out = outputs[g]
            if out.data is not None:
                np.copyto(out.data, partials[g].data)
            engine.submit(
                self.ctx.device(g).compute_stream, f"{label}/copy", "memset",
                self.cost_models[g].memset_time(out.nbytes),
            )

    # -- passes --------------------------------------------------------------------

    def _forward(self) -> List[Dict[int, DeviceTensor]]:
        engine = self.ctx.engine
        L = self.model.num_layers
        inputs: Dict[int, DeviceTensor] = dict(self.features)
        outputs: List[Dict[int, DeviceTensor]] = []
        for l in range(L):
            d_in, d_out = self.model.dims_of(l)
            ah = {g: self.ah_bufs[g][l] for g in range(self.ctx.num_gpus)}
            self._spmm_15d(self.fwd_tiles, inputs, ah, d_in, f"fwd{l}/spmm")
            outs: Dict[int, DeviceTensor] = {}
            for g in range(self.ctx.num_gpus):
                z = self.z_bufs[g][l]
                gemm(engine, self.cost_models[g],
                     self.ctx.device(g).compute_stream,
                     ah[g], self.weights[g][l], z, name=f"fwd{l}/gemm")
                if l < L - 1:
                    act = self.act_bufs[g][l]
                    if z.data is not None:
                        np.maximum(z.data, 0.0, out=act.data)
                    engine.submit(
                        self.ctx.device(g).compute_stream, f"fwd{l}/relu",
                        "activation",
                        self.cost_models[g].elementwise_time(z.size, 1, 1),
                    )
                    outs[g] = act
                else:
                    outs[g] = z
            outputs.append(outs)
            inputs = outs
        return outputs

    def _loss(self, logits: Dict[int, DeviceTensor],
              grads: Dict[int, DeviceTensor]) -> Optional[float]:
        total = 0.0
        num_train = self.dataset.num_train
        for g in range(self.ctx.num_gpus):
            local, _ = softmax_cross_entropy(
                self.ctx.engine, self.cost_models[g],
                self.ctx.device(g).compute_stream,
                logits[g], self.labels[g], self.train_masks[g],
                grad_out=grads[g], total_train=num_train, name="loss",
            )
            if g < self.R:  # count each row block once
                total += local
        if self.mode is Mode.SYMBOLIC:
            return None
        return total / num_train

    def _backward(self, outputs: List[Dict[int, DeviceTensor]],
                  grads: Dict[int, DeviceTensor]) -> None:
        engine = self.ctx.engine
        L = self.model.num_layers
        self._adam_t += 1
        for l in range(L - 1, -1, -1):
            d_in, d_out = self.model.dims_of(l)
            if l < L - 1:
                for g in range(self.ctx.num_gpus):
                    relu_backward(
                        engine, self.cost_models[g],
                        self.ctx.device(g).compute_stream,
                        grads[g], outputs[l][g], name=f"bwd{l}/relu",
                    )
            hwg = {
                g: self.hwg_scratch[g].view2d(self.part.size(g % self.R), d_out)
                for g in range(self.ctx.num_gpus)
            }
            self._spmm_15d(self.bwd_tiles, grads, hwg, d_out, f"bwd{l}/spmm")
            wg_events: Dict[int, List[Event]] = {}
            for g in range(self.ctx.num_gpus):
                h_in = self.features[g] if l == 0 else outputs[l - 1][g]
                ev = gemm(
                    engine, self.cost_models[g],
                    self.ctx.device(g).compute_stream,
                    h_in, hwg[g], self.wgrads[g][l],
                    transpose_a=True, name=f"bwd{l}/wgrad",
                )
                wg_events[g] = [ev]
            new_grads: Dict[int, DeviceTensor] = {}
            if l > 0:
                for g in range(self.ctx.num_gpus):
                    hg = self.hgrad_scratch[g].view2d(
                        self.part.size(g % self.R), d_in
                    )
                    gemm(
                        engine, self.cost_models[g],
                        self.ctx.device(g).compute_stream,
                        hwg[g], self.weights[g][l], hg,
                        transpose_b=True, name=f"bwd{l}/hgrad",
                    )
                    new_grads[g] = hg
            # the weight gradient must sum each row block once; replicas
            # computed identical partials, so allreduce with mean over
            # layers x sum over rows == sum over blocks.
            allred = self.world_comm.allreduce(
                {g: self.wgrads[g][l] for g in range(self.ctx.num_gpus)},
                op="sum", deps_by_rank=wg_events, name=f"bwd{l}/allreduce_wg",
            )
            for g in range(self.ctx.num_gpus):
                # replicas double count: rescale by 1/c
                wgrad = self.wgrads[g][l]
                if wgrad.data is not None:
                    wgrad.data /= self.c
                engine.submit(
                    self.ctx.device(g).compute_stream, f"bwd{l}/rescale",
                    "elementwise",
                    self.cost_models[g].elementwise_time(wgrad.size, 1, 1),
                    deps=[allred[g]],
                )
                self._adam_step(g, layer=l)
            if l > 0:
                grads = new_grads

    # -- epochs ------------------------------------------------------------------------

    def _run_epoch(self) -> Optional[float]:
        outputs = self._forward()
        grads = {
            g: self.hgrad_scratch[g].view2d(
                self.part.size(g % self.R), self.model.layer_dims[-1]
            )
            for g in range(self.ctx.num_gpus)
        }
        loss = self._loss(outputs[-1], grads)
        self._backward(outputs, grads)
        return loss

    def _output_rows(self, split: str):
        """Replica layer 0 holds every row block once."""
        logits = self._forward()[-1]
        masks = getattr(self, f"{split}_masks")
        ranks = [self._gpu(i, 0) for i in range(self.R)]
        return (
            [logits[g].data for g in ranks],
            [self.labels[g] for g in ranks],
            [masks[g] for g in ranks],
        )
