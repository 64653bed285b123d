"""Integration: the epoch paths change nothing observable.

By default epoch 1 runs eagerly under capture and later epochs replay
the captured plan. An eager epoch is submitted one way: each per-rank
kernel is one group closure whose ops go through ``Engine.submit`` one
by one, and each distributed SpMM replays its stage plan, which also
feeds the capture. These tests pin both paths, bitwise — losses, epoch
times, the full trace including event *order*, and the final weights —
against each other and against:

* a run under a non-trivial but inert fault plan (its only fault comes
  after the last epoch), which takes the generic stage loop and never
  captures;
* node-aware collectives on 2 nodes, whose broadcasts are one planned
  rendezvous each, like the flat ring's;
* exact simulated epoch times, so a scheduling drift fails here.
"""

from collections import Counter

import numpy as np
import pytest

from repro.comm import Communicator
from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.hardware.machines import (
    dgx1,
    multi_node_cluster,
    uniform_machine,
)
from repro.nn import GCNModelSpec
from repro.resilience import DeviceFailure, FaultInjector, FaultPlan

EPOCHS = 4


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cora", scale=0.1, learnable=True, seed=7)


@pytest.fixture(scope="module")
def model(dataset):
    return GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 3)


def _flat_ring(trainer):
    """Swap the trainer's node-aware collectives for the flat ring (before
    its first epoch); returns the trainer."""
    trainer.comm = Communicator(trainer.ctx, bw_derate=trainer.comm.bw_derate)
    return trainer


def _run(dataset, model, num_gpus, eager=False, machine=None, **config):
    """Train ``EPOCHS`` epochs; ``eager`` runs every epoch through
    ``_train_epoch_eager`` instead of capturing and replaying."""
    trainer = MGGCNTrainer(
        dataset, model, machine=machine, num_gpus=num_gpus,
        config=TrainerConfig(**config),
    )
    if eager:
        trainer._capture_allowed = lambda: False
    stats = trainer.fit(EPOCHS)
    trace = [
        (e.device, e.stream, e.name, e.category, e.start, e.end, e.stage,
         e.nbytes, e.correlation, e.flops)
        for s in stats for e in s.trace
    ]
    return (
        [s.loss for s in stats],
        [s.epoch_time for s in stats],
        trace,
        trainer.get_weights(),
        trainer.plan_stats,
    )


def _assert_identical(got, want):
    assert got[0] == want[0]  # losses, bitwise
    assert got[1] == want[1]  # epoch times, bitwise
    assert got[2] == want[2]  # full trace, order included
    for gw, ww in zip(got[3], want[3]):
        assert np.array_equal(gw, ww)


def _inert_faults():
    """A non-trivial fault plan whose only fault never fires in a run."""
    return FaultInjector(
        FaultPlan(device_failures=(DeviceFailure(rank=0, time=1e9),))
    )


#: base configurations: the defaults, and a stale training cache whose
#: serve epochs scatter replica rows that differ from the root's tile.
BASES = {
    "default": {},
    "stale-cache": dict(cache_staleness_epochs=1),
}

#: runs the eager path must match, built fresh per run.
REFERENCES = {
    "inert-faults": lambda: dict(fault_injector=_inert_faults()),
}


def _mini_cluster():
    """2 nodes x 2 GPUs, so a 4-GPU run spans the NIC."""
    return multi_node_cluster(2, node=uniform_machine(2, name="mini-node"))


@pytest.mark.parametrize("num_gpus", [1, 4], ids=["P1", "P4"])
@pytest.mark.parametrize("base", list(BASES))
class TestEagerFusionIdentity:
    @pytest.mark.parametrize("reference", list(REFERENCES))
    def test_fast_path_is_bitwise_identical(self, dataset, model, num_gpus,
                                            base, reference):
        eager = _run(dataset, model, num_gpus, eager=True, **BASES[base])
        other = _run(dataset, model, num_gpus, **BASES[base],
                     **REFERENCES[reference]())
        _assert_identical(eager, other)

    def test_fused_trace_is_nonempty_and_covers_categories(
        self, dataset, model, num_gpus, base
    ):
        # a group still emits one trace event per rank.
        trace = _run(dataset, model, num_gpus, eager=True, **BASES[base])[2]
        categories = {t[3] for t in trace}
        assert {"gemm", "spmm", "activation"} <= categories
        for name in ("fwd0/gemm", "fwd0/relu", "bwd1/wgrad", "bwd1/hgrad"):
            assert sum(t[2] == name for t in trace) == num_gpus * EPOCHS


@pytest.mark.parametrize("num_gpus", [1, 4], ids=["P1", "P4"])
@pytest.mark.parametrize("base", list(BASES))
class TestReplayFusionIdentity:
    """The default (capturing, then replaying) run against eager runs."""

    def test_captured_fast_path_matches_plain_eager(
        self, dataset, model, num_gpus, base
    ):
        eager = _run(dataset, model, num_gpus, eager=True, **BASES[base])
        replayed = _run(dataset, model, num_gpus, **BASES[base])
        _assert_identical(replayed, eager)
        assert eager[4].eager_epochs == EPOCHS
        assert replayed[4].eager_epochs == 0
        assert replayed[4].replays >= 1

    def test_replay_matches_inert_fault_generic_path(
        self, dataset, model, num_gpus, base
    ):
        inert = _run(dataset, model, num_gpus, eager=True,
                     fault_injector=_inert_faults(), **BASES[base])
        replayed = _run(dataset, model, num_gpus, **BASES[base])
        _assert_identical(replayed, inert)


@pytest.mark.parametrize("base", list(BASES))
def test_node_aware_replay_matches_eager(dataset, model, base):
    """Across 2 nodes the default collectives are node-aware. Each
    broadcast of the staged schedule is one rendezvous on the planned
    stage path: replay, plain eager epochs and the inert-fault generic
    loop agree bitwise."""
    staged = dict(BASES[base], schedule="1d")
    eager = _run(dataset, model, 4, eager=True, machine=_mini_cluster(),
                 **staged)
    replayed = _run(dataset, model, 4, machine=_mini_cluster(), **staged)
    generic = _run(dataset, model, 4, eager=True, machine=_mini_cluster(),
                   fault_injector=_inert_faults(), **staged)
    _assert_identical(replayed, eager)
    _assert_identical(generic, eager)
    assert replayed[4].replays >= 1
    # one `{label}/bcast[j]` event per comm stream (4 ranks) per epoch
    bcasts = Counter(t[2] for t in replayed[2] if "/bcast[" in t[2])
    assert bcasts and set(bcasts.values()) == {4 * EPOCHS}
    assert all(name.endswith("]") for name in bcasts)


@pytest.mark.parametrize("workload", ["cora-2x2gpu", "reddit-2xdgx1"])
def test_node_aware_plan_shape_matches_flat(dataset, workload):
    """The node-aware plan keeps the flat ring's closures, and its only
    extra levels are the epoch's one phased weight allreduce (2 levels):
    no per-broadcast phases."""
    if workload == "cora-2x2gpu":
        ds, machine, gpus = dataset, _mini_cluster(), 4
        model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 2)
    else:
        ds = load_dataset("reddit", symbolic=True)
        machine, gpus = multi_node_cluster(2, dgx1()), 16
        model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)

    def plan(flat):
        trainer = MGGCNTrainer(ds, model, machine=machine, num_gpus=gpus,
                               config=TrainerConfig(schedule="1d"))
        if flat:
            _flat_ring(trainer)
        trainer.train_epoch()
        (captured,) = trainer._plans.values()
        return captured

    node_aware, flat = plan(False), plan(True)
    assert node_aware.num_levels <= flat.num_levels + 2
    assert node_aware.num_closures == flat.num_closures


class TestPinnedEpochTimes:
    """First-epoch simulated times at seed 7, to the last bit.

    The default trainer aggregates the input features once at
    construction, so its layer 0 is one GeMM: its pins moved on purpose
    when that landed (arxiv p8 0.21732 -> 0.20157 ms, reddit on two
    nodes 35.07 -> 9.12 ms, its flat ring 202.4 -> 31.80 ms). The
    paper's ``schedule="1d"`` keeps its pins.
    """

    @staticmethod
    def _arxiv_p8(**config):
        ds = load_dataset("arxiv", scale=0.005, learnable=True, seed=7)
        model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 4)
        return MGGCNTrainer(ds, model, num_gpus=8,
                            config=TrainerConfig(seed=7, **config))

    def test_arxiv_p8(self):
        trainer = self._arxiv_p8(schedule="1d")  # the paper's schedule
        assert trainer.train_epoch().epoch_time == 0.000927522663616558

    def test_arxiv_p8_planner_schedule(self):
        trainer = self._arxiv_p8()
        assert trainer.schedule == ("1d_allgather",) * 4
        assert trainer.train_epoch().epoch_time == 0.00020156976383442287

    @staticmethod
    def _reddit_two_nodes(**config):
        ds = load_dataset("reddit", symbolic=True)
        model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
        return MGGCNTrainer(
            ds, model, machine=multi_node_cluster(2, dgx1()), num_gpus=16,
            config=TrainerConfig(seed=7, **config),
        )

    def test_symbolic_reddit_two_nodes(self):
        trainer = self._reddit_two_nodes()
        assert trainer.train_epoch().epoch_time == 0.009122967174089548

    def test_symbolic_reddit_two_nodes_paper_schedule(self):
        trainer = self._reddit_two_nodes(schedule="1d")
        assert trainer.train_epoch().epoch_time == 0.03506551427334879

    def test_symbolic_reddit_two_nodes_flat_ring(self):
        trainer = _flat_ring(self._reddit_two_nodes())
        assert trainer.train_epoch().epoch_time == 0.0317959663536546

    def test_symbolic_reddit_two_nodes_flat_ring_paper_schedule(self):
        trainer = _flat_ring(self._reddit_two_nodes(schedule="1d"))
        assert trainer.train_epoch().epoch_time == 0.20242106160106194
