"""Multi-node parallelism: hierarchical collectives + per-layer planning.

The subsystem has three tiers:

* **collectives** — :class:`HierarchicalCommunicator`, the default of
  every :class:`~repro.core.trainer.MGGCNTrainer`, prices each
  collective as intra-node rings plus an inter-node tree, paying each
  NIC once per node instead of once per rank (bit-identical payloads to
  the flat communicator);
* **trainers** — :class:`Parallel15DTrainer` / :class:`Parallel2DTrainer`
  promote the CAGNET grid baselines to multi-node first-class trainers;
* **planning** — :class:`ParallelismPlanner` prices every scheme with
  the simulator's own cost/communication models and emits an
  explainable :class:`ParallelismPlan` (the ``repro parallel plan``
  CLI prints it). Its per-layer scheme vector is the default schedule
  of :class:`~repro.core.trainer.MGGCNTrainer`, which dispatches each
  GCN layer's SpMM to its own scheme (``TrainerConfig.schedule``).
"""

import importlib

from repro.parallel.groups import (
    group_leaders,
    link_class,
    node_groups,
    spans_nodes,
)
from repro.parallel.hierarchy import HierarchicalCommunicator
from repro.parallel.planner import (
    LayerChoice,
    ParallelismPlan,
    ParallelismPlanner,
    SchemeCost,
)
from repro.parallel.strategies import (
    FIXED_SCHEMES,
    LAYER_SCHEMES,
    allgather_spmm,
)

#: The grid trainers subclass :class:`repro.core.trainer.Trainer`, whose
#: module imports this package, so they load on first access.
_TRAINERS = {
    "Parallel15DTrainer": "repro.parallel.trainer15d",
    "Parallel2DTrainer": "repro.parallel.trainer2d",
}


def __getattr__(name: str):
    if name in _TRAINERS:
        return getattr(importlib.import_module(_TRAINERS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FIXED_SCHEMES",
    "LAYER_SCHEMES",
    "HierarchicalCommunicator",
    "LayerChoice",
    "Parallel15DTrainer",
    "Parallel2DTrainer",
    "ParallelismPlan",
    "ParallelismPlanner",
    "SchemeCost",
    "allgather_spmm",
    "group_leaders",
    "link_class",
    "node_groups",
    "spans_nodes",
]
