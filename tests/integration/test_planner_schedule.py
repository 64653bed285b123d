"""The planner's per-layer schedule, the trainer's default when P > 1.

Every explicit schedule trains the paper schedule's weights to the last
bit (the allgather SpMM accumulates its tiles in the staged order). The
default also aggregates the input features once, so layer 0 is one GeMM
over ``Â^T X``: its weights follow the exact reference at the parallel
trainers' tolerance. Capture and replay stay bitwise equal to eager
epochs on allgather layers, and a bad schedule fails cleanly with
``ConfigurationError``.
"""

import re

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.errors import ConfigurationError
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec, ReferenceGCN
from repro.parallel import LAYER_SCHEMES
from repro.resilience import DeviceFailure, FaultInjector, FaultPlan

EPOCHS = 5


def _arxiv_p8():
    ds = load_dataset("arxiv", scale=0.005, learnable=True, seed=7)
    model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 4)
    return ds, model, dgx1(), 8


def _cora_two_nodes():
    ds = load_dataset("cora", scale=0.1, learnable=True, seed=7)
    model = GCNModelSpec.build(ds.d0, 16, ds.num_classes, 3)
    return ds, model, multi_node_cluster(2, dgx1()), 16


WORKLOADS = {"arxiv-p8": _arxiv_p8, "cora-2xdgx1": _cora_two_nodes}


@pytest.fixture(scope="module", params=list(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]()


def _fit(workload, eager=False, **config):
    """Train ``EPOCHS`` epochs; returns the trainer and a run record."""
    ds, model, machine, gpus = workload
    trainer = MGGCNTrainer(ds, model, machine=machine, num_gpus=gpus,
                           config=TrainerConfig(seed=7, **config))
    if eager:
        trainer._capture_allowed = lambda: False
    stats = trainer.fit(EPOCHS)
    trace = [(e.device, e.stream, e.name, e.start, e.end, e.nbytes)
             for s in stats for e in s.trace]
    record = ([s.loss for s in stats], [s.epoch_time for s in stats], trace,
              trainer.get_weights())
    return trainer, record


def _assert_same_weights(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_planner_default_trains_the_paper_weights(workload):
    """The planner's schedule, given explicitly, trains the paper
    schedule's weights bit for bit; the default runs it on aggregated
    features and matches the exact reference."""
    planned, run = _fit(workload)
    explicit, explicit_run = _fit(workload, schedule=planned.schedule)
    paper, paper_run = _fit(workload, schedule="1d")
    assert planned.parallelism_plan is not None
    assert planned.schedule == tuple(planned.parallelism_plan.schemes)
    assert "1d_allgather" in planned.schedule
    assert explicit.schedule == planned.schedule
    assert paper.schedule == ("1d",) * len(paper.schedule)
    assert explicit_run[0] == paper_run[0]  # losses, bitwise
    _assert_same_weights(explicit_run[3], paper_run[3])
    ds, model, _, _ = workload
    ref = ReferenceGCN(ds, model, seed=7, first_layer_skip=False)
    for _ in range(EPOCHS):
        ref.train_epoch()
    for a, b in zip(run[3], ref.weights):
        assert np.allclose(a, b, rtol=1e-5, atol=2e-6)
    # ... in less simulated time
    assert run[1][-1] < explicit_run[1][-1] < paper_run[1][-1]


def test_arxiv_p8_runs_allgather_on_every_layer():
    trainer = MGGCNTrainer(*_arxiv_p8()[:2], num_gpus=8)
    assert trainer.schedule == ("1d_allgather",) * 4


def test_mixed_schedule_trains_the_paper_weights(workload):
    _, model, _, _ = workload
    mixed = tuple(
        "1d_allgather" if l % 2 else "1d"
        for l in range(model.num_layers)
    )
    _, run = _fit(workload, schedule=mixed)
    _, paper_run = _fit(workload, schedule="1d")
    assert run[0] == paper_run[0]
    _assert_same_weights(run[3], paper_run[3])


def test_allgather_replay_matches_eager(workload):
    """Replayed allgather epochs equal eager ones and the inert-fault
    generic path: losses, epoch times, trace and weights, bitwise."""
    trainer, replayed = _fit(workload, schedule="1d_allgather")
    _, eager = _fit(workload, eager=True, schedule="1d_allgather")
    inert = FaultInjector(
        FaultPlan(device_failures=(DeviceFailure(rank=0, time=1e9),))
    )
    _, generic = _fit(workload, schedule="1d_allgather", fault_injector=inert)
    assert trainer.plan_stats.replays == EPOCHS - 1
    names = {t[2] for t in replayed[2]}
    assert "fwd1/spmm/wide" in names
    assert any(name.startswith("fwd1/spmm/allgather") for name in names)
    assert not any("/bcast[" in name for name in names)
    for other in (eager, generic):
        assert replayed[:3] == other[:3]
        _assert_same_weights(replayed[3], other[3])


def test_allgather_waits_for_its_operand():
    """Each allgather starts after the kernel that wrote its operand: the
    layer's GeMM (GeMM-first), the previous layer's ReLU (SpMM-first),
    the loss or the next layer's ReLU-grad GeMM (backward). Layer 0 reads
    the aggregated features through one GeMM, with no SpMM."""
    ds, model, machine, gpus = _arxiv_p8()
    trainer = MGGCNTrainer(ds, model, machine=machine, num_gpus=gpus)
    trainer.train_epoch()
    trace = trainer.train_epoch().trace  # a replayed epoch
    L = model.num_layers
    for device in {e.device for e in trace}:
        ev = {e.name: e for e in trace if e.device == device}
        assert "fwd0/spmm/allgather" not in ev
        for l in range(1, L):
            gather = ev[f"fwd{l}/spmm/allgather"]
            gemm = ev[f"fwd{l}/gemm"]
            producer = (
                gemm if gemm.start < gather.start else ev[f"fwd{l - 1}/relu"]
            )
            assert gather.start >= producer.end
        for l in range(1, L):
            producer = ev["loss"] if l == L - 1 else ev[f"bwd{l + 1}/hgrad"]
            assert ev[f"bwd{l}/spmm/allgather"].start >= producer.end


class TestScheduleErrors:
    @pytest.mark.parametrize("schedule", ["2d", ("1d", "bogus"), ()])
    def test_unknown_scheme(self, schedule):
        with pytest.raises(ConfigurationError, match="schedule"):
            TrainerConfig(schedule=schedule)

    def test_wrong_length(self, small_dataset, small_model):
        with pytest.raises(ConfigurationError, match="2 layers"):
            MGGCNTrainer(small_dataset, small_model, num_gpus=4,
                         config=TrainerConfig(schedule=("1d",) * 3))

    @pytest.mark.parametrize(
        "schedule", ["1d_allgather", ("1d", "1d_allgather")]
    )
    def test_allgather_with_training_cache(self, schedule):
        with pytest.raises(ConfigurationError, match="cache"):
            TrainerConfig(schedule=schedule, cache_staleness_epochs=1)

    def test_cache_defaults_to_staged_broadcasts(self, small_dataset,
                                                 small_model):
        trainer = MGGCNTrainer(
            small_dataset, small_model, num_gpus=4,
            config=TrainerConfig(cache_staleness_epochs=1),
        )
        assert trainer.schedule == ("1d", "1d")
        assert trainer.parallelism_plan is None

    def test_list_schedule_is_normalised(self):
        assert TrainerConfig(schedule=["1d", "1d_allgather"]).schedule == (
            "1d", "1d_allgather")

    @pytest.mark.parametrize("schedule", ["1d_hier", ("1d", "1d_hier")])
    def test_node_aware_alias_is_gone(self, schedule):
        """The staged scheme has one name; the old alias is rejected."""
        with pytest.raises(ConfigurationError,
                           match=re.escape(str(LAYER_SCHEMES))):
            TrainerConfig(schedule=schedule)

    def test_single_gpu_runs_the_local_spmm(self, small_dataset,
                                            small_model):
        trainer = MGGCNTrainer(
            small_dataset, small_model, num_gpus=1,
            config=TrainerConfig(schedule="1d_allgather"),
        )
        assert trainer.schedule == ("1d", "1d")
        assert trainer.parallelism_plan is None
