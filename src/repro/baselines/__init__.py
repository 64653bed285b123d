"""Baseline systems the paper compares against, on the same substrate.

The DGL, CAGNET 1D, 1.5D and 2D trainers subclass
:class:`repro.core.trainer.Trainer`, so they share MG-GCN's input
checks, flat weight/Adam buffers, Adam op, epoch bookkeeping, ``fit``
and ``evaluate``, and keep only their own algorithm. They keep a
per-layer weight-gradient allreduce and ``adam{l}`` op (the figures pin
that op sequence) and run every epoch eagerly (they compute on the host
outside engine ops, which a replayed epoch would skip).
"""

from repro.baselines.dgl_like import DGLLikeTrainer, DGL_KERNEL_COSTS
from repro.baselines.cagnet import (
    CAGNETTrainer,
    CAGNET_KERNEL_COSTS,
    cagnet_1d_comm_time,
    cagnet_15d_comm_time,
)
from repro.baselines.cagnet15d import CAGNET15DTrainer
from repro.baselines.cagnet2d import CAGNET2DTrainer
from repro.baselines.distgnn import DISTGNN_RESULTS, distgnn_best, distgnn_single_socket

__all__ = [
    "DGLLikeTrainer",
    "DGL_KERNEL_COSTS",
    "CAGNETTrainer",
    "CAGNET15DTrainer",
    "CAGNET2DTrainer",
    "CAGNET_KERNEL_COSTS",
    "cagnet_1d_comm_time",
    "cagnet_15d_comm_time",
    "DISTGNN_RESULTS",
    "distgnn_best",
    "distgnn_single_socket",
]
