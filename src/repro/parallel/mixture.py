"""The mixture-of-parallelism trainer.

:class:`MixtureTrainer` is :class:`~repro.core.trainer.MGGCNTrainer`
with the per-layer SpMM dispatched through the planner's choices
(:class:`~repro.parallel.planner.ParallelismPlan`): each layer runs its
distributed SpMM as ``1d`` (flat staged broadcast), ``1d_hier`` (staged
broadcast over node-aware collectives, the base trainer's) or
``1d_allgather`` (replicated-operand single wide SpMM) — the MixGCN idea
of mixing parallelism modes *within* one model instead of picking one
globally.

Everything outside the SpMM seam is inherited unchanged — forward/
backward order optimisation, capture & replay (the plan signature
includes the scheme vector, so changing plans recaptures), elastic
recovery, telemetry. Numerics track the base trainer: hierarchical
collectives are bit-identical to flat ones, so the staged schemes
(``1d``, ``1d_hier``) reproduce its weights bit for bit. The allgather
scheme computes the same sum ``C^i = sum_j A^{ij} S^j`` as one wide
SpMM, which rounds its float32 accumulator at different points than the
staged P-step schedule — equal at reference tolerance, not in the last
ulp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.comm.collectives import Communicator
from repro.core.spmm_mg import distributed_spmm
from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.core.order import broadcast_width
from repro.datasets.loader import Dataset, SymbolicDataset
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor
from repro.errors import ConfigurationError
from repro.hardware.machines import dgx1
from repro.hardware.spec import MachineSpec
from repro.nn.model import GCNModelSpec
from repro.parallel.planner import ParallelismPlan, ParallelismPlanner
from repro.parallel.strategies import allgather_spmm, concat_tile_row


class MixtureTrainer(MGGCNTrainer):
    """MG-GCN trainer with planner-chosen parallelism per layer."""

    def __init__(
        self,
        dataset: Union[Dataset, SymbolicDataset],
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        config: Optional[TrainerConfig] = None,
        plan: Optional[ParallelismPlan] = None,
    ):
        machine = machine or dgx1()
        base = config or TrainerConfig()
        if plan is None:
            plan = ParallelismPlanner(
                dataset,
                model,
                machine,
                num_gpus=num_gpus,
                kernel_costs=base.kernel_costs,
                overlap=base.overlap,
                order_optimization=base.order_optimization,
                first_layer_skip=base.first_layer_skip,
            ).plan()
        if len(plan.choices) != model.num_layers:
            raise ConfigurationError(
                f"plan covers {len(plan.choices)} layers, model has "
                f"{model.num_layers}"
            )
        self.plan = plan
        super().__init__(
            dataset, model, machine=machine, num_gpus=num_gpus, config=base
        )
        if plan.num_gpus != self.num_gpus:
            raise ConfigurationError(
                f"plan was made for {plan.num_gpus} GPUs, trainer has "
                f"{self.num_gpus}"
            )
        # both communicator flavours: the base trainer's node-aware one
        # (which also syncs the weights, as the plan's weight_sync says:
        # node-aware across nodes, the flat ring on one) and a flat ring.
        self.hier_comm: Communicator = self.comm
        self.flat_comm: Communicator = Communicator(
            self.ctx,
            bw_derate=self.comm.bw_derate,
            timeout=self.comm.timeout,
        )
        self._wide_fwd: Optional[List[object]] = None
        self._wide_bwd: Optional[List[object]] = None
        self._gather_buffers: Optional[List[DeviceTensor]] = None
        self._wide_allocs: List[object] = []
        if self.num_gpus > 1 and any(
            s == "1d_allgather" for s in plan.schemes
        ):
            self._init_allgather_state()

    # -- allgather-scheme state ----------------------------------------------

    def _allgather_width(self) -> int:
        """Widest operand any allgather-scheme SpMM gathers."""
        widths = []
        for choice in self.plan.choices:
            if choice.scheme != "1d_allgather":
                continue
            widths.append(
                broadcast_width(
                    choice.d_in,
                    choice.d_out,
                    self.config.order_optimization,
                )
            )
            if choice.layer > 0 or not self.config.first_layer_skip:
                widths.append(choice.d_out)  # backward gradient rows
        return max(widths)

    def _init_allgather_state(self) -> None:
        P = self.num_gpus
        n = sum(self.graph.local_rows(i) for i in range(P))
        width = self._allgather_width()
        self._gather_buffers = [
            self.ctx.device(i).empty((n, width), name=f"AG{i}", tag="allgather")
            for i in range(P)
        ]
        self._wide_fwd = [
            concat_tile_row(self.graph.forward_tiles[i]) for i in range(P)
        ]
        self._wide_bwd = [
            concat_tile_row(self.graph.backward_tiles[i]) for i in range(P)
        ]
        # the hstacked tile rows live on-device next to the per-stage
        # tiles; account their bytes like the partitioner does.
        for i in range(P):
            pool = self.ctx.device(i).pool
            for wide in (self._wide_fwd[i], self._wide_bwd[i]):
                self._wide_allocs.append(
                    pool.allocate(int(wide.nbytes), tag="adjacency-wide")
                )

    # -- the SpMM seam -------------------------------------------------------

    def _run_spmm(
        self,
        layer: int,
        direction: str,
        tiles,
        sources: Sequence[DeviceTensor],
        outputs: Sequence[DeviceTensor],
        deps_by_rank: Optional[Dict[int, List[Event]]] = None,
        label: str = "spmm",
    ) -> Dict[int, List[Event]]:
        scheme = self.plan.scheme(layer) if self.num_gpus > 1 else "1d"
        if scheme == "1d_allgather":
            wide = self._wide_fwd if direction == "fwd" else self._wide_bwd
            return allgather_spmm(
                self.ctx,
                self.hier_comm,
                self.cost_models,
                wide,
                sources,
                outputs,
                self._gather_buffers,
                deps_by_rank=deps_by_rank,
                label=label,
            )
        comm = self.hier_comm if scheme == "1d_hier" else self.flat_comm
        return distributed_spmm(
            self.ctx,
            comm,
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

    def _plan_signature(self):
        world, phase = super()._plan_signature()
        return world + (tuple(self.plan.schemes),), phase
