"""A mini-batch (sampled) GCN trainer — the DistDGL-style comparator.

The paper contrasts its full-batch approach against sampling-based
systems (DistDGL, AliGraph, FastGCN, Cluster-GCN). This trainer is the
minimal faithful representative: GraphSAGE-style fanout sampling +
per-batch forward/backward on the sampled blocks + Adam, on one
simulated GPU. It exposes the same ``train_epoch() -> EpochStats`` /
``evaluate(split)`` protocol as the other trainers, so the training
loop, benches and tests compose.

Two caveats the paper raises appear naturally here:

* per-epoch *work* grows with the sampled neighbourhood (each batch
  touches fanout^L more vertices than its seeds);
* the gradient is a biased estimate (sampled mean aggregation), so the
  loss trajectory differs from full-batch training — which is exactly
  the accuracy-gap argument ([20]) the paper cites.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.device.engine import SimContext
from repro.device.tensor import Mode
from repro.errors import ConfigurationError
from repro.datasets.loader import Dataset
from repro.hardware.machines import dgx1, single_gpu
from repro.hardware.spec import MachineSpec
from repro.kernels.cost import CostModel, KernelCosts
from repro.nn.adam import AdamOptimizer
from repro.nn.init import init_weights
from repro.nn.model import GCNModelSpec
from repro.core.stats import EpochStats
from repro.sampling.neighbor import NeighborSampler, SampledBlock
from repro.sparse.csr import CSRMatrix
from repro.sparse.normalize import gcn_normalize
from repro.utils.rng import as_generator


class MiniBatchGCNTrainer:
    """Sampled GCN training on one simulated GPU."""

    def __init__(
        self,
        dataset: Dataset,
        model: GCNModelSpec,
        fanouts: Optional[Sequence[int]] = None,
        batch_size: int = 512,
        machine: Optional[MachineSpec] = None,
        lr: float = 1e-2,
        seed: int = 0,
        kernel_costs: Optional[KernelCosts] = None,
    ):
        if dataset.is_symbolic:
            raise ConfigurationError("mini-batch training needs a functional dataset")
        if model.layer_dims[0] != dataset.d0:
            raise ConfigurationError(
                f"model input width {model.layer_dims[0]} != dataset d0 {dataset.d0}"
            )
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if fanouts is None:
            fanouts = [10] * model.num_layers
        if len(fanouts) != model.num_layers:
            raise ConfigurationError(
                f"{len(fanouts)} fanouts for {model.num_layers} layers"
            )
        machine = machine or dgx1()
        self.dataset = dataset
        self.model = model
        self.batch_size = batch_size
        self.ctx = SimContext(single_gpu(machine.gpu, name="minibatch-gpu"),
                              num_gpus=1, mode=Mode.FUNCTIONAL)
        self.cost = CostModel(machine.gpu, kernel_costs or KernelCosts())
        # aggregation pattern: row v lists in-neighbours (A_hat^T layout)
        self.full_adjacency = gcn_normalize(dataset.adjacency).transpose()
        self.sampler = NeighborSampler(self.full_adjacency, fanouts)
        self.weights = init_weights(model.layer_dims, seed=seed)
        self.optimizer = AdamOptimizer(self.weights, lr=lr)
        self.rng = as_generator(seed)
        self.epochs_trained = 0
        # memory accounting: features + graph staged on the device
        dev = self.ctx.device(0)
        dev.pool.allocate(dataset.features.nbytes, tag="features")
        dev.pool.allocate(self.full_adjacency.nbytes, tag="adjacency")

    @property
    def mode(self) -> Mode:
        return Mode.FUNCTIONAL

    def get_weights(self) -> List[np.ndarray]:
        return [w.copy() for w in self.weights]

    # -- one batch ----------------------------------------------------------------

    def _run_batch(self, seeds: np.ndarray) -> float:
        """Forward + backward + step on one sampled batch; returns loss sum."""
        engine = self.ctx.engine
        stream = self.ctx.device(0).compute_stream
        blocks = self.sampler.sample(seeds, rng=self.rng)
        h = self.dataset.features[blocks[0].src_nodes].astype(FLOAT_DTYPE)
        inputs: List[np.ndarray] = []
        outputs: List[np.ndarray] = []
        for l, block in enumerate(blocks):
            inputs.append(h)
            hw = h @ self.weights[l]
            engine.submit(
                stream, f"mb/fwd{l}/gemm", "gemm",
                self.cost.gemm_time(h.shape[0], hw.shape[1], h.shape[1]),
            )
            z = block.adjacency.spmm(hw)
            engine.submit(
                stream, f"mb/fwd{l}/spmm", "spmm",
                self.cost.spmm_time(
                    block.num_dst, block.adjacency.nnz, hw.shape[1],
                    block.num_src,
                ),
            )
            if l < len(blocks) - 1:
                np.maximum(z, 0.0, out=z)
                engine.submit(
                    stream, f"mb/fwd{l}/relu", "activation",
                    self.cost.elementwise_time(z.size, 1, 1),
                )
            h = z.astype(FLOAT_DTYPE, copy=False)
            outputs.append(h)

        # loss on the seeds (all destinations of the last block)
        labels = self.dataset.labels[blocks[-1].dst_nodes]
        logits = outputs[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        denom = exp.sum(axis=1, keepdims=True)
        log_probs = shifted - np.log(denom)
        picked = log_probs[np.arange(labels.size), labels]
        loss_sum = float(-picked.sum())
        grad = exp / denom
        grad[np.arange(labels.size), labels] -= 1.0
        grad = (grad / labels.size).astype(FLOAT_DTYPE)
        engine.submit(
            stream, "mb/loss", "loss",
            self.cost.softmax_xent_time(labels.size, logits.shape[1]),
        )

        # backward through the blocks
        grads: List[Optional[np.ndarray]] = [None] * len(blocks)
        g = grad
        for l in range(len(blocks) - 1, -1, -1):
            block = blocks[l]
            if l < len(blocks) - 1:
                g = g * (outputs[l] > 0)
                engine.submit(
                    stream, f"mb/bwd{l}/relu", "activation",
                    self.cost.elementwise_time(g.size, 2, 1),
                )
            hwg = block.adjacency.transpose().spmm(g)
            engine.submit(
                stream, f"mb/bwd{l}/spmm", "spmm",
                self.cost.spmm_time(
                    block.num_src, block.adjacency.nnz, g.shape[1],
                    block.num_dst,
                ),
            )
            grads[l] = (inputs[l].T @ hwg).astype(FLOAT_DTYPE)
            engine.submit(
                stream, f"mb/bwd{l}/wgrad", "gemm",
                self.cost.gemm_time(
                    inputs[l].shape[1], hwg.shape[1], inputs[l].shape[0]
                ),
            )
            if l > 0:
                # block l's sources are exactly block l-1's destinations,
                # so hwg @ W^T is already the gradient at layer l-1's
                # output — no index remapping needed.
                g = (hwg @ self.weights[l].T).astype(FLOAT_DTYPE)
                engine.submit(
                    stream, f"mb/bwd{l}/hgrad", "gemm",
                    self.cost.gemm_time(hwg.shape[0], self.weights[l].shape[0],
                                        hwg.shape[1]),
                )
        self.optimizer.step(grads)  # type: ignore[arg-type]
        engine.submit(
            stream, "mb/adam", "adam",
            self.cost.adam_time(self.model.num_parameters),
        )
        return loss_sum

    # -- epochs ------------------------------------------------------------------------

    def train_epoch(self) -> EpochStats:
        """One pass over the training vertices in shuffled mini-batches."""
        t0 = self.ctx.synchronize()
        trace_start = len(self.ctx.engine.trace)
        train_ids = np.nonzero(self.dataset.train_mask)[0]
        order = self.rng.permutation(train_ids.size)
        shuffled = train_ids[order]
        total_loss = 0.0
        for start in range(0, shuffled.size, self.batch_size):
            seeds = shuffled[start : start + self.batch_size]
            total_loss += self._run_batch(seeds)
        t1 = self.ctx.synchronize()
        self.epochs_trained += 1
        return EpochStats(
            epoch_time=t1 - t0,
            loss=total_loss / max(train_ids.size, 1),
            peak_memory=self.ctx.peak_memory(),
            trace=self.ctx.engine.trace[trace_start:],
        )

    def fit(self, epochs: int) -> List[EpochStats]:
        if epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
        return [self.train_epoch() for _ in range(epochs)]

    # -- evaluation: full-graph inference (no sampling) -----------------------------------

    def evaluate(self, split: str = "test") -> float:
        masks = {
            "train": self.dataset.train_mask,
            "val": self.dataset.val_mask,
            "test": self.dataset.test_mask,
        }
        if split not in masks:
            raise ConfigurationError(f"unknown split {split!r}")
        mask = masks[split]
        h = self.dataset.features
        for l, w in enumerate(self.weights):
            z = self.full_adjacency.spmm(h @ w)
            if l < len(self.weights) - 1:
                np.maximum(z, 0.0, out=z)
            h = z.astype(FLOAT_DTYPE, copy=False)
        pred = np.argmax(h, axis=1)
        return float((pred[mask] == self.dataset.labels[mask]).mean())
