"""The default trainer aggregates its input features once.

``X`` and ``Â^T`` never change during training, so on the default path
(``schedule=None``, no training cache) construction overwrites each
rank's ``X`` in place with its rows of ``Â^T X`` and layer 0 becomes one
GeMM. This file pins what that pass must keep: the numbers, the plan
cache, peak memory, replay's bit-exactness, and a fault plan's clock,
which counts from the end of construction.
"""

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.errors import DeviceFailedError
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec
from repro.resilience import DeviceFailure, FaultInjector, FaultPlan
from repro.resilience.recovery import ElasticTrainer
from repro.sparse import apply_permutation, random_permutation
from repro.sparse.normalize import gcn_normalize
from repro.sparse.permutation import permute_rows

EPOCHS = 4


def _trainer(dataset, model, gpus=4, **config):
    return MGGCNTrainer(dataset, model, machine=dgx1(), num_gpus=gpus,
                        config=TrainerConfig(seed=3, **config))


@pytest.mark.parametrize("gpus", [1, 4])
def test_features_hold_the_aggregated_input(small_dataset, small_model, gpus):
    trainer = _trainer(small_dataset, small_model, gpus)
    assert trainer.features_aggregated
    perm = random_permutation(small_dataset.n, seed=3)
    a_hat_t = gcn_normalize(
        apply_permutation(small_dataset.adjacency, perm)
    ).transpose()
    x = permute_rows(small_dataset.features, perm).astype(np.float64)
    want = a_hat_t.to_dense().astype(np.float64) @ x
    got = np.concatenate([f.data for f in trainer.graph.features])
    assert np.allclose(got, want, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("config", [
    {"schedule": "1d"},
    {"schedule": ("1d", "1d_allgather")},
    {"cache_staleness_epochs": 0},
])
def test_explicit_schedules_keep_the_paper_layer0(small_dataset, small_model,
                                                   config):
    trainer = _trainer(small_dataset, small_model, **config)
    assert not trainer.features_aggregated
    assert trainer.setup_sim_time == 0.0
    assert trainer.config.first_layer_skip is True
    perm = random_permutation(small_dataset.n, seed=3)
    x = permute_rows(small_dataset.features, perm)
    got = np.concatenate([f.data for f in trainer.graph.features])
    assert np.array_equal(got, x)


def test_no_setup_plan_is_left_behind(small_dataset, small_model):
    trainer = _trainer(small_dataset, small_model)
    assert trainer.setup_sim_time > 0.0
    labels = {label for label, _ in trainer.ctx.spmm_plan_cache}
    assert not any(label.startswith("setup/") for label in labels)


def test_setup_pass_is_traced_before_epoch_one(small_dataset, small_model):
    trainer = _trainer(small_dataset, small_model)
    names = {e.name for e in trainer.ctx.engine.trace}
    assert "setup/aggregate/copy" in names
    assert max(e.end for e in trainer.ctx.engine.trace) == trainer.setup_sim_time
    stats = trainer.train_epoch()
    assert min(e.start for e in stats.trace) >= trainer.setup_sim_time
    assert not any(e.name.startswith("setup/") for e in stats.trace)
    assert "fwd0/gemm" in {e.name for e in stats.trace}
    assert not any(e.name.startswith(("fwd0/spmm", "bwd0/spmm"))
                   for e in stats.trace)


def _peak(trainer):
    trainer.fit(2)
    return trainer.ctx.peak_memory()


def test_peak_memory_matches_the_paper_schedule(small_dataset, small_model):
    """Columns of X are aggregated block by block through the HW scratch
    and copied back over X: no device byte is added."""
    default = _trainer(small_dataset, small_model, 1)
    paper = _trainer(small_dataset, small_model, 1, schedule="1d")
    assert _peak(default) == _peak(paper)


def test_aggregated_layer0_needs_no_gather_buffer(small_dataset, small_model):
    """Under the planner's all-allgather schedule the aggregated layer 0
    runs no SpMM, so its (widest) operand no longer sizes the gather
    buffers."""
    default = _trainer(small_dataset, small_model)
    same_schedule = _trainer(small_dataset, small_model,
                             schedule=default.schedule)
    assert default.schedule == ("1d_allgather",) * 2
    assert (default._gather_buffers[0].cols
            < same_schedule._gather_buffers[0].cols)
    assert _peak(default) < _peak(same_schedule)


def test_peak_memory_matches_on_symbolic_reddit():
    ds = load_dataset("reddit", symbolic=True)
    model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)

    def peak(**config):
        trainer = MGGCNTrainer(ds, model, machine=multi_node_cluster(2, dgx1()),
                               config=TrainerConfig(**config))
        return _peak(trainer)

    assert peak() == peak(schedule="1d")


def _record(trainer):
    stats = trainer.fit(EPOCHS)
    trace = [(e.device, e.stream, e.name, e.start, e.end, e.nbytes)
             for s in stats for e in s.trace]
    return ([s.loss for s in stats], [s.epoch_time for s in stats], trace,
            trainer.get_weights())


def test_replay_is_bitwise_eager(small_dataset, small_model):
    replayed = _trainer(small_dataset, small_model)
    eager = _trainer(small_dataset, small_model)
    eager._capture_allowed = lambda: False
    got, want = _record(replayed), _record(eager)
    assert replayed.plan_stats.replays == EPOCHS - 1
    assert got[:3] == want[:3]
    for a, b in zip(got[3], want[3]):
        assert np.array_equal(a, b)


class TestFaultOrigin:
    """FaultPlan times count from the start of training."""

    @staticmethod
    def _plan(time):
        return FaultPlan(device_failures=(DeviceFailure(rank=1, time=time),))

    def test_bare_injector_counts_from_zero(self):
        injector = FaultInjector(self._plan(1e-6))
        assert injector.origin is None
        assert injector.device_failure_time(1) == 1e-6

    def test_no_fault_fires_during_construction(self, small_dataset,
                                                small_model):
        injector = FaultInjector(self._plan(1e-9))
        trainer = _trainer(small_dataset, small_model,
                           fault_injector=injector)
        assert trainer.setup_sim_time > 1e-9
        assert injector.origin == trainer.setup_sim_time
        assert injector.device_failure_time(1) == trainer.setup_sim_time + 1e-9
        with pytest.raises(DeviceFailedError) as info:
            trainer.train_epoch()
        assert info.value.failed_at == trainer.setup_sim_time + 1e-9

    def test_only_the_first_trainer_sets_the_origin(self, small_dataset,
                                                    small_model):
        injector = FaultInjector(self._plan(1.0))
        first = _trainer(small_dataset, small_model, fault_injector=injector)
        _trainer(small_dataset, small_model, 2, fault_injector=injector)
        assert injector.origin == first.setup_sim_time

    def test_recovery_keeps_the_origin(self, small_dataset, small_model):
        elastic = ElasticTrainer(small_dataset, small_model, num_gpus=4,
                                 plan=self._plan(1e-6))
        origin = elastic.injector.origin
        assert origin == elastic.trainer.setup_sim_time > 0.0
        elastic.fit(2)
        assert elastic.num_gpus == 3
        assert elastic.injector.origin == origin
        assert elastic.recovery_log[0].failed_at == origin + 1e-6
