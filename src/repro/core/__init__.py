"""MG-GCN core: 1D distribution, multi-stage broadcast SpMM, trainer."""

from repro.core.partitioner import DistributedGraph, partition_dataset
from repro.core.order import ComputeOrder, choose_forward_order
from repro.core.spmm_mg import distributed_spmm
from repro.core.stats import EpochStats
from repro.core.trainer import MGGCNTrainer, Trainer, TrainerConfig

__all__ = [
    "DistributedGraph",
    "partition_dataset",
    "ComputeOrder",
    "choose_forward_order",
    "distributed_spmm",
    "EpochStats",
    "MGGCNTrainer",
    "Trainer",
    "TrainerConfig",
]
