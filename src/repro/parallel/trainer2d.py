"""The 2D (SUMMA) trainer for multi-node clusters.

:class:`Parallel2DTrainer` promotes the CAGNET 2D baseline
(:class:`~repro.baselines.cagnet2d.CAGNET2DTrainer`) the same way the
1.5D trainer is promoted: MG-GCN-tuned kernel costs, and
hierarchical collectives on every communicator that spans nodes. In the
``r x r`` SUMMA grid (rank ``g = i * r + j``) the row groups are
contiguous rank ranges — node-aligned whenever ``r`` divides the node
size — while the column groups stride across nodes and benefit most
from the tree phase over the NICs.

Requires a square GPU count (inherited from the baseline); numerics
match :class:`~repro.nn.ReferenceGCN` exactly like the baseline does.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.baselines.cagnet2d import CAGNET2DTrainer
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.spec import MachineSpec
from repro.kernels.cost import KernelCosts
from repro.nn.model import GCNModelSpec
from repro.parallel.trainer15d import _hierarchical


class Parallel2DTrainer(CAGNET2DTrainer):
    """CAGNET 2D (SUMMA) with MG-GCN kernels and hierarchical collectives."""

    #: MG-GCN-tuned kernels, not the baseline's CAGNET profile.
    KERNEL_COSTS = KernelCosts()

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
        super().__init__(
            dataset,
            model,
            machine=machine,
            num_gpus=num_gpus,
            lr=lr,
            seed=seed,
            permute=permute,
        )
        self.row_comms = [_hierarchical(self.ctx, c) for c in self.row_comms]
        self.col_comms = [_hierarchical(self.ctx, c) for c in self.col_comms]
        self.world_comm = _hierarchical(self.ctx, self.world_comm)
