"""Property tests: trainer invariants across random configurations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset, planted_partition_dataset
from repro.datasets.loader import Dataset
from repro.hardware import dgx1
from repro.nn import GCNModelSpec, ReferenceGCN


def _make_dataset(n, classes, d0, seed):
    adj, x, y, train, val, test = planted_partition_dataset(
        n, num_classes=classes, feature_dim=d0, avg_degree=6.0, seed=seed
    )
    return Dataset(
        name=f"prop-{seed}",
        adjacency=adj,
        features=x,
        labels=y,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=classes,
    )


@settings(max_examples=12, deadline=None)
@given(
    st.integers(40, 120),  # vertices
    st.integers(2, 4),  # classes
    st.integers(4, 12),  # feature dim
    st.integers(4, 16),  # hidden dim
    st.sampled_from([1, 2, 4, 8]),  # GPUs
    st.booleans(),  # overlap
    st.booleans(),  # permute
    st.integers(0, 2**31 - 1),
)
def test_distributed_equals_reference(
    n, classes, d0, hidden, gpus, overlap, permute, seed
):
    """For ANY random config, one epoch of the multi-GPU trainer must
    leave the weights exactly where the single-process oracle does."""
    ds = _make_dataset(n, classes, d0, seed)
    model = GCNModelSpec.build(d0, hidden, classes, 2)
    cfg = TrainerConfig(
        permute=permute, overlap=overlap, first_layer_skip=False, seed=seed
    )
    trainer = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=gpus, config=cfg)
    ref = ReferenceGCN(ds, model, seed=seed, first_layer_skip=False)
    stats = trainer.train_epoch()
    ref_loss = ref.train_epoch()
    assert stats.loss == pytest.approx(ref_loss, rel=1e-4, abs=1e-6)
    for a, b in zip(trainer.get_weights(), ref.weights):
        assert np.allclose(a, b, rtol=5e-3, atol=5e-5)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8]),
    st.integers(0, 2**31 - 1),
)
def test_epoch_time_positive_and_trace_consistent(gpus, seed):
    ds = _make_dataset(80, 3, 8, seed)
    model = GCNModelSpec.build(8, 8, 3, 2)
    trainer = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=gpus)
    start = trainer.ctx.elapsed()
    stats = trainer.train_epoch()
    assert stats.epoch_time > 0
    # every traced op fits inside the epoch
    for ev in stats.trace:
        assert ev.end <= stats.epoch_time * (1 + 1e-9) + ev.start
        assert ev.duration >= 0
    # epoch time is the max completion over all trace events, counted
    # from the epoch's start
    assert stats.epoch_time == pytest.approx(
        max(ev.end for ev in stats.trace) - start
    )


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.integers(0, 2**31 - 1))
def test_memory_shrinks_with_more_gpus(gpus, seed):
    ds = _make_dataset(200, 3, 16, seed)
    model = GCNModelSpec.build(16, 16, 3, 2)
    one = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=1)
    # the 1D schedule: partitioned state (features + adjacency + buffers)
    # dominates the replicated weights at this size, so per-GPU memory
    # must drop. (An allgather layer replicates its n-row operand.)
    many = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=gpus,
                        config=TrainerConfig(schedule="1d"))
    assert many.ctx.peak_memory() < one.ctx.peak_memory()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_loss_sequence_deterministic(seed):
    ds = _make_dataset(100, 3, 8, seed)
    model = GCNModelSpec.build(8, 8, 3, 2)
    cfg = TrainerConfig(seed=seed)
    a = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=4, config=cfg)
    b = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=4, config=cfg)
    losses_a = [s.loss for s in a.fit(3)]
    losses_b = [s.loss for s in b.fit(3)]
    assert losses_a == losses_b
