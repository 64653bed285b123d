"""The 1.5D trainer for multi-node clusters.

:class:`Parallel15DTrainer` is the CAGNET 1.5D algorithm
(:class:`~repro.baselines.cagnet15d.CAGNET15DTrainer`) promoted from an
analytic baseline to a first-class multi-node trainer:

* MG-GCN-tuned kernel costs (the baseline deliberately
  models CAGNET's less-optimised kernels);
* every communicator whose rank set spans nodes is replaced by a
  :class:`~repro.parallel.hierarchy.HierarchicalCommunicator`, so the
  row-group broadcasts and the cross-replica reductions pay the NIC
  once per node instead of once per rank.

The grid mapping ``g = l * R + i`` makes each replica layer a
*contiguous* rank range: with ``replication == num_nodes`` each layer's
broadcast group lives on one node (pure NVLink) and only the partial
reduction crosses the NICs — the natural node-aligned 1.5D placement
Demirci et al. describe for distributed-memory GNN training.

Numerics are unchanged (hierarchical collectives are bit-identical to
flat ones), so the trainer matches :class:`~repro.nn.ReferenceGCN`
exactly like the baseline does.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.baselines.cagnet15d import CAGNET15DTrainer
from repro.comm.collectives import Communicator
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.hardware.spec import MachineSpec
from repro.kernels.cost import KernelCosts
from repro.nn.model import GCNModelSpec
from repro.parallel.groups import spans_nodes
from repro.parallel.hierarchy import HierarchicalCommunicator


def _hierarchical(ctx, comm: Communicator) -> Communicator:
    """A hierarchical clone of ``comm`` when its ranks span nodes."""
    if not spans_nodes(ctx.machine, comm.ranks):
        return comm
    return HierarchicalCommunicator(
        ctx,
        comm.ranks,
        comm.bw_derate,
        comm.collective_overhead,
        comm.timeout,
        comm.retry,
    )


class Parallel15DTrainer(CAGNET15DTrainer):
    """CAGNET 1.5D with MG-GCN kernels and hierarchical collectives."""

    #: MG-GCN-tuned kernels, not the baseline's CAGNET profile.
    KERNEL_COSTS = KernelCosts()

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
        super().__init__(
            dataset,
            model,
            machine=machine,
            num_gpus=num_gpus,
            replication=replication,
            lr=lr,
            seed=seed,
            permute=permute,
        )
        self.layer_comms = [
            _hierarchical(self.ctx, c) for c in self.layer_comms
        ]
        self.replica_comms = [
            _hierarchical(self.ctx, c) for c in self.replica_comms
        ]
        self.world_comm = _hierarchical(self.ctx, self.world_comm)
