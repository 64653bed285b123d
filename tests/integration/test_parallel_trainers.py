"""Multi-node trainers: reference equivalence, speed, capture, recovery.

The subsystem's correctness claim: hierarchical collectives are
bit-identical to flat ones, so every :mod:`repro.parallel` trainer —
1.5D, 2D (SUMMA) and the planner-driven per-layer schedule of
:class:`MGGCNTrainer` — computes the same float32 training trajectory
as the partitioned algorithm it wraps, and matches the sequential NumPy
reference at ``rtol=1e-5`` (with a tiny ``2e-6`` absolute floor for
Adam-amplified last-ulp noise on near-zero weights). The per-layer
schemes round identically, so every schedule trains the same weights
to the last bit.
"""

import numpy as np
import pytest

from repro.comm import Communicator
from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.hardware import dgx1, multi_node_cluster
from repro.hardware.machines import uniform_machine
from repro.nn import GCNModelSpec, ReferenceGCN
from repro.parallel import (
    LAYER_SCHEMES,
    Parallel15DTrainer,
    Parallel2DTrainer,
)

EPOCHS = 3
RTOL, ATOL = 1e-5, 2e-6


@pytest.fixture(scope="module")
def two_node_cluster():
    """2 DGX-1 nodes over IB: 16 GPUs, square (2D-capable)."""
    return multi_node_cluster(2, dgx1())


@pytest.fixture(scope="module")
def mini_cluster():
    """2 nodes x 2 GPUs: node-spanning with minimal partitions."""
    return multi_node_cluster(2, node=uniform_machine(2, name="mini-node"))


def _assert_matches_reference(trainer, dataset, model, label):
    ref = ReferenceGCN(dataset, model, seed=9)
    for _ in range(EPOCHS):
        stats = trainer.train_epoch()
        ref_loss = ref.train_epoch()
        assert stats.loss == pytest.approx(ref_loss, rel=1e-4, abs=1e-6), label
    for layer, (a, b) in enumerate(zip(trainer.get_weights(), ref.weights)):
        assert np.allclose(a, b, rtol=RTOL, atol=ATOL), (
            f"{label}: layer {layer} max err {np.abs(a - b).max()}"
        )


@pytest.mark.parametrize("gpus", [4, 16])
def test_15d_matches_reference_both_datasets(
    small_dataset, small_model, tiny_dataset, tiny_model,
    mini_cluster, two_node_cluster, gpus,
):
    cluster = mini_cluster if gpus == 4 else two_node_cluster
    for ds, model in (
        (small_dataset, small_model),
        (tiny_dataset, tiny_model),
    ):
        trainer = Parallel15DTrainer(
            ds, model, machine=cluster, num_gpus=gpus, replication=2, seed=9
        )
        _assert_matches_reference(trainer, ds, model, f"15d P={gpus}")


@pytest.mark.parametrize("gpus", [4, 16])
def test_2d_matches_reference_both_datasets(
    small_dataset, small_model, tiny_dataset, tiny_model,
    mini_cluster, two_node_cluster, gpus,
):
    cluster = mini_cluster if gpus == 4 else two_node_cluster
    for ds, model in (
        (small_dataset, small_model),
        (tiny_dataset, tiny_model),
    ):
        trainer = Parallel2DTrainer(
            ds, model, machine=cluster, num_gpus=gpus, seed=9
        )
        _assert_matches_reference(trainer, ds, model, f"2d P={gpus}")


def test_mixture_matches_reference(small_dataset, small_model,
                                   two_node_cluster):
    cfg = TrainerConfig(first_layer_skip=False, seed=9)
    mix = MGGCNTrainer(
        small_dataset, small_model, machine=two_node_cluster, config=cfg
    )
    ref = ReferenceGCN(small_dataset, small_model, seed=9,
                       first_layer_skip=False)
    for _ in range(EPOCHS):
        stats = mix.train_epoch()
        ref_loss = ref.train_epoch()
        assert stats.loss == pytest.approx(ref_loss, rel=1e-4, abs=1e-6)
    for a, b in zip(mix.get_weights(), ref.weights):
        assert np.allclose(a, b, rtol=RTOL, atol=ATOL)


def test_mixture_equivalent_to_base_trainer(small_dataset, small_model,
                                            two_node_cluster):
    """Scheme dispatch changes timing, not training math: the planner's
    schedule and every uniform scheme train the paper schedule's weights
    bit for bit (the allgather SpMM accumulates its tiles in the staged
    order). The default runs the planner's schedule on aggregated
    features, so it matches the exact reference instead."""
    def trained(schedule):
        trainer = MGGCNTrainer(
            small_dataset, small_model, machine=two_node_cluster,
            config=TrainerConfig(seed=5, schedule=schedule),
        )
        trainer.fit(EPOCHS)
        return trainer

    base = trained("1d").get_weights()
    default = trained(None)
    for schedule in (default.schedule,) + LAYER_SCHEMES[1:]:
        for a, b in zip(trained(schedule).get_weights(), base):
            assert np.array_equal(a, b), schedule
    ref = ReferenceGCN(small_dataset, small_model, seed=5,
                       first_layer_skip=False)
    for _ in range(EPOCHS):
        ref.train_epoch()
    for a, b in zip(default.get_weights(), ref.weights):
        assert np.allclose(a, b, rtol=RTOL, atol=ATOL)


def test_hierarchical_collectives_beat_flat_across_nodes():
    """Measured simulated epochs: on 2 nodes the default (node-aware)
    trainer clearly beats the flat ring (the NIC is paid once per node,
    not per rank)."""
    ds = load_dataset("arxiv", symbolic=True)
    model = GCNModelSpec.build(ds.d0, 256, ds.num_classes, 2)
    cluster = multi_node_cluster(2, dgx1())

    def epoch(flat_ring):
        trainer = MGGCNTrainer(ds, model, machine=cluster)
        if flat_ring:
            trainer.comm = Communicator(
                trainer.ctx, bw_derate=trainer.comm.bw_derate
            )
        trainer.train_epoch()
        return trainer.train_epoch().epoch_time

    flat = epoch(flat_ring=True)
    hier = epoch(flat_ring=False)
    assert hier < 0.5 * flat


def test_mixture_capture_replay(small_dataset, small_model,
                                two_node_cluster):
    """Epoch capture covers the planner's multi-node schedule; the
    replayed epochs keep the exact eager numerics."""
    mix = MGGCNTrainer(
        small_dataset, small_model, machine=two_node_cluster,
        config=TrainerConfig(seed=5),
    )
    eager = MGGCNTrainer(
        small_dataset, small_model, machine=two_node_cluster,
        config=TrainerConfig(seed=5),
    )
    eager._capture_allowed = lambda: False  # every epoch eager
    for _ in range(4):
        mix.train_epoch()
        eager.train_epoch()
    assert mix.plan_stats.captures == 1
    assert mix.plan_stats.replays == 3
    for a, b in zip(mix.get_weights(), eager.get_weights()):
        assert np.array_equal(a, b)


def test_elastic_recovery_still_works_under_1d(small_dataset, small_model):
    """The parallel subsystem must not break single-node elastic
    recovery: a 1D run on the flat path recovers from a device failure."""
    from repro.resilience import DeviceFailure, FaultPlan
    from repro.resilience.recovery import ElasticTrainer

    probe = ElasticTrainer(
        small_dataset, small_model, num_gpus=4, plan=FaultPlan()
    )
    fail_at = 0.5 * sum(s.epoch_time for s in probe.fit(2))
    elastic = ElasticTrainer(
        small_dataset, small_model, num_gpus=4,
        plan=FaultPlan(device_failures=(DeviceFailure(rank=1, time=fail_at),)),
    )
    elastic.fit(4)
    assert len(elastic.recovery_log) == 1
    assert elastic.num_gpus == 3


def test_parallel_fast_path_smoke(tiny_dataset, tiny_model):
    """Tier-1 smoke: one functional epoch of every parallel trainer on
    a small node-spanning cluster, plus plan/telemetry surface checks."""
    cluster = multi_node_cluster(2, node=uniform_machine(2, name="mini-node"))
    mix = MGGCNTrainer(tiny_dataset, tiny_model, machine=cluster)
    stats = mix.train_epoch()
    assert stats.loss > 0
    assert mix.schedule == tuple(mix.parallelism_plan.schemes)
    assert len(mix.schedule) == tiny_model.num_layers
    assert mix.parallelism_plan.explain()
    for cls, kw in (
        (Parallel15DTrainer, {"replication": 2}),
        (Parallel2DTrainer, {}),
    ):
        trainer = cls(tiny_dataset, tiny_model, machine=cluster, **kw)
        assert trainer.train_epoch().loss > 0
