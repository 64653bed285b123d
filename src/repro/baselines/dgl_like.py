"""A DGL-like single-GPU full-batch GCN trainer.

Models how DGL 0.7 executes the same model, with the behaviours the
paper's comparisons hinge on:

* **eager buffers** — SpMM, GeMM and activation outputs are separate
  live tensors per layer (autograd keeps them for backward), so memory
  grows ~3 feature-sized buffers per layer (Fig. 12's DGL curve);
* **no fusion** — ReLU is out-of-place, its backward is a separate
  elementwise op, and the loss is several unfused kernels;
* **no first-layer skip** — autograd runs the layer-0 backward SpMM;
* **framework overhead** — Python dispatch and autograd bookkeeping add
  a fixed per-op cost;
* **less-tuned sparse kernels** — DGL's generalised SpMM reaches a lower
  fraction of bandwidth than cuSPARSE CSR and caches gathers worse.

DGL's ``GraphConv`` *does* pick aggregate-first vs matmul-first by
feature widths, so order selection stays on.

The lifecycle (weights and Adam state, the per-layer ``adam{l}`` op,
epochs, ``evaluate``) comes from :class:`~repro.core.trainer.Trainer`
on its one device.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.device.tensor import DeviceTensor, Mode
from repro.errors import ConfigurationError
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.machines import single_gpu
from repro.hardware.spec import GPUSpec, MachineSpec
from repro.kernels.cost import KernelCosts
from repro.kernels.ops import gemm, relu_backward, softmax_cross_entropy, spmm
from repro.nn.buffers import EagerBufferManager
from repro.nn.model import GCNModelSpec
from repro.core.order import ComputeOrder, choose_forward_order
from repro.core.trainer import Trainer
from repro.sparse.csr import CSRMatrix
from repro.sparse.normalize import gcn_normalize
from repro.sparse.symbolic import SymbolicCSR

#: Kernel-efficiency knobs modelling DGL 0.7's measured behaviour.
DGL_KERNEL_COSTS = KernelCosts(
    gemm_flop_efficiency=0.65,
    stream_bw_efficiency=0.78,
    spmm_bw_efficiency=0.55,
    spmm_cache_hit_max=0.60,
    framework_overhead=1e-4,
)


class DGLLikeTrainer(Trainer):
    """Single-GPU full-batch GCN the way DGL runs it."""

    KERNEL_COSTS = DGL_KERNEL_COSTS

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        gpu: Optional[GPUSpec] = None,
        machine: Optional[MachineSpec] = None,
        lr: float = 1e-2,
        seed: int = 0,
    ):
        if machine is not None:
            gpu = machine.gpu
        if gpu is None:
            raise ConfigurationError("DGLLikeTrainer needs a gpu or machine")
        super().__init__(dataset, model, single_gpu(gpu, name="dgl-gpu"), 1,
                         lr=lr, seed=seed)
        mode = self.mode
        self.dev = self.ctx.device(0)
        self.cost = self.cost_models[0]

        # adjacency (both directions: autograd needs the backward SpMM)
        if mode is Mode.FUNCTIONAL:
            self.a_hat: Union[CSRMatrix, SymbolicCSR] = gcn_normalize(
                dataset.adjacency
            )
            self.a_hat_t: Union[CSRMatrix, SymbolicCSR] = self.a_hat.transpose()
        else:
            self.a_hat = SymbolicCSR((dataset.n, dataset.n), dataset.m)
            self.a_hat_t = self.a_hat.transpose()
        self._adj_alloc = self.dev.pool.allocate(
            self.a_hat.nbytes + self.a_hat_t.nbytes, tag="adjacency"
        )

        # features
        if mode is Mode.FUNCTIONAL:
            self.features = self.dev.from_numpy(
                dataset.features, name="X", tag="features"
            )
        else:
            self.features = self.dev.symbolic(
                (dataset.n, dataset.d0), name="X", tag="features"
            )

        # eager per-layer buffers: [HW, AHW, H'] all live (autograd graph).
        self.buffers = EagerBufferManager(
            self.dev,
            local_rows=dataset.n,
            layer_dims=model.layer_dims,
            buffers_per_layer=3,
        )
        # two backward scratch tensors (autograd's transient grads).
        max_d = max(model.layer_dims[1:])
        self._scratch = [
            self.dev.empty((dataset.n, max_d), name=f"grad{i}", tag="buffer/grad")
            if mode is Mode.FUNCTIONAL
            else self.dev.symbolic((dataset.n, max_d), name=f"grad{i}", tag="buffer/grad")
            for i in range(2)
        ]

        self._init_weights()

    # -- passes -------------------------------------------------------------------

    def _forward(self) -> List[DeviceTensor]:
        """Per-layer activations; each op lands in its own eager buffer."""
        engine = self.ctx.engine
        stream = self.dev.compute_stream
        L = self.model.num_layers
        h = self.features
        outputs: List[DeviceTensor] = []
        for l in range(L):
            d_in, d_out = self.model.dims_of(l)
            order = choose_forward_order(d_in, d_out, True)
            buf_a = self.buffers.layer_buffer(l, 0)
            buf_b = self.buffers.layer_buffer(l, 1)
            buf_act = self.buffers.layer_buffer(l, 2)
            if order is ComputeOrder.GEMM_FIRST:
                hw = buf_a
                gemm(engine, self.cost, stream, h, self.weights[0][l], hw,
                     name=f"fwd{l}/gemm")
                spmm(engine, self.cost, stream, self.a_hat_t, hw, buf_b,
                     accumulate=False, name=f"fwd{l}/spmm")
            else:
                # aggregate first: AH uses a d_in-wide view of buffer A
                # aggregate-first is chosen only when d_in < d_out, so the
                # d_out-wide layer buffer always fits the AH intermediate.
                ah = buf_a.view2d(buf_a.rows, d_in)
                spmm(engine, self.cost, stream, self.a_hat_t, h, ah,
                     accumulate=False, name=f"fwd{l}/spmm")
                gemm(engine, self.cost, stream, ah, self.weights[0][l], buf_b,
                     name=f"fwd{l}/gemm")
            if l < L - 1:
                # out-of-place ReLU (no fusion): read buf_b, write buf_act.
                if buf_b.data is not None:
                    np.maximum(buf_b.data, 0.0, out=buf_act.data)
                engine.submit(
                    stream, f"fwd{l}/relu", "activation",
                    self.cost.elementwise_time(buf_b.size, reads=1, writes=1),
                )
                h = buf_act
            else:
                h = buf_b
            outputs.append(h)
        return outputs

    def _loss(self, logits: DeviceTensor, grad_out: DeviceTensor) -> Optional[float]:
        """Unfused loss: softmax, reduction, then the gradient kernel."""
        engine = self.ctx.engine
        stream = self.dev.compute_stream
        # extra unfused passes DGL/PyTorch perform (log_softmax + nll).
        engine.submit(
            stream, "loss/log_softmax", "loss",
            self.cost.softmax_xent_time(logits.rows, logits.cols),
        )
        engine.submit(
            stream, "loss/nll", "loss",
            self.cost.reduction_time(logits.rows),
        )
        labels = None if self.dataset.is_symbolic else self.dataset.labels
        mask = None if self.dataset.is_symbolic else self.dataset.train_mask
        total_train = self.dataset.num_train
        loss, _ = softmax_cross_entropy(
            engine, self.cost, stream, logits, labels, mask,
            grad_out=grad_out, total_train=total_train, name="loss/grad",
        )
        if self.mode is Mode.SYMBOLIC:
            return None
        return loss / total_train

    def _backward(self, outputs: List[DeviceTensor], grad: DeviceTensor) -> None:
        engine = self.ctx.engine
        stream = self.dev.compute_stream
        L = self.model.num_layers
        self._adam_t += 1
        for l in range(L - 1, -1, -1):
            d_in, d_out = self.model.dims_of(l)
            if l < L - 1:
                relu_backward(engine, self.cost, stream, grad, outputs[l],
                              name=f"bwd{l}/relu")
            # autograd always runs the backward SpMM (no layer-0 skip)
            hwg = self._scratch[0].view2d(self.dataset.n, d_out)
            spmm(engine, self.cost, stream, self.a_hat, grad, hwg,
                 accumulate=False, name=f"bwd{l}/spmm")
            h_in = self.features if l == 0 else outputs[l - 1]
            gemm(engine, self.cost, stream, h_in, hwg, self.wgrads[0][l],
                 transpose_a=True, name=f"bwd{l}/wgrad")
            if l > 0:
                hgrad = self._scratch[1].view2d(self.dataset.n, d_in)
                gemm(engine, self.cost, stream, hwg, self.weights[0][l], hgrad,
                     transpose_b=True, name=f"bwd{l}/hgrad")
                grad = hgrad
            self._adam_step(0, layer=l)

    # -- epochs --------------------------------------------------------------------

    def _run_epoch(self) -> Optional[float]:
        outputs = self._forward()
        grad = self._scratch[1].view2d(self.dataset.n, self.model.layer_dims[-1])
        loss = self._loss(outputs[-1], grad)
        self._backward(outputs, grad)
        return loss

    def _output_rows(self, split: str):
        logits = self._forward()[-1]
        return (
            [logits.data],
            [self.dataset.labels],
            [getattr(self.dataset, f"{split}_mask")],
        )
