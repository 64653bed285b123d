"""MG-GCN reproduction: a scalable multi-GPU GCN training framework.

This library reproduces *MG-GCN: A Scalable multi-GPU GCN Training
Framework* (Balın, Sancak, Çatalyürek — ICPP 2022) on a simulated
multi-GPU substrate: virtual GPUs with byte-accurate memory pools,
streams/events, NVLink topology models of DGX-1 and DGX-A100,
NCCL-style collectives and roofline kernel cost models, plus fully
functional NumPy execution of the GCN math so training really trains.

Quickstart::

    from repro import load_dataset, GCNModelSpec, MGGCNTrainer, dgx_a100

    dataset = load_dataset("reddit", scale=0.01, learnable=True)
    model = GCNModelSpec.build(dataset.d0, 512, dataset.num_classes, 2)
    trainer = MGGCNTrainer(dataset, model, machine=dgx_a100(), num_gpus=8)
    stats = trainer.train_epoch()
    print(stats.epoch_time, trainer.evaluate("test"))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.config import GiB, MiB, KiB
from repro.errors import (
    ReproError,
    DeviceOutOfMemoryError,
    PartitionError,
    CommunicationError,
    ConfigurationError,
)
from repro.hardware import (
    dgx1,
    dgx_a100,
    single_gpu,
    uniform_machine,
    multi_node_cluster,
    get_machine,
)
from repro.device import SimContext, Mode, VirtualGPU, DeviceTensor
from repro.comm import Communicator
from repro.kernels import CostModel, KernelCosts
from repro.sparse import COOMatrix, CSRMatrix
from repro.datasets import (
    load_dataset,
    Dataset,
    SymbolicDataset,
    DatasetSpec,
    get_spec,
    planted_partition_dataset,
)
from repro.nn import (
    GCNModelSpec,
    ReferenceGCN,
    AdamOptimizer,
    save_checkpoint,
    load_checkpoint,
)
from repro.core import MGGCNTrainer, TrainerConfig, EpochStats
from repro.baselines import (
    DGLLikeTrainer,
    CAGNETTrainer,
    CAGNET15DTrainer,
    CAGNET2DTrainer,
)
from repro.training import TrainingLoop, EarlyStopping, TrainingHistory
from repro.sampling import MiniBatchGCNTrainer, NeighborSampler, neighborhood_expansion

__version__ = "1.0.0"

__all__ = [
    "GiB",
    "MiB",
    "KiB",
    "ReproError",
    "DeviceOutOfMemoryError",
    "PartitionError",
    "CommunicationError",
    "ConfigurationError",
    "dgx1",
    "dgx_a100",
    "single_gpu",
    "uniform_machine",
    "multi_node_cluster",
    "get_machine",
    "SimContext",
    "Mode",
    "VirtualGPU",
    "DeviceTensor",
    "Communicator",
    "CostModel",
    "KernelCosts",
    "COOMatrix",
    "CSRMatrix",
    "load_dataset",
    "Dataset",
    "SymbolicDataset",
    "DatasetSpec",
    "get_spec",
    "planted_partition_dataset",
    "GCNModelSpec",
    "ReferenceGCN",
    "AdamOptimizer",
    "save_checkpoint",
    "load_checkpoint",
    "MGGCNTrainer",
    "TrainerConfig",
    "EpochStats",
    "DGLLikeTrainer",
    "CAGNETTrainer",
    "CAGNET15DTrainer",
    "CAGNET2DTrainer",
    "TrainingLoop",
    "EarlyStopping",
    "TrainingHistory",
    "MiniBatchGCNTrainer",
    "NeighborSampler",
    "neighborhood_expansion",
    "__version__",
]
