"""Property tests: the training tile cache is semantically invisible.

At ``staleness_epochs=0`` every epoch is a refresh epoch and the cached
replica is rewritten write-through before being scattered, so training
with the cache MUST be bit-for-bit identical to training without it —
for any config, under arbitrary evict/clear interleavings between
epochs, and under (timing-only) fault injection.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets.loader import Dataset
from repro.datasets import planted_partition_dataset
from repro.hardware import dgx1
from repro.nn import GCNModelSpec
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    StragglerSlowdown,
)


def _make_dataset(n, classes, d0, seed):
    adj, x, y, train, val, test = planted_partition_dataset(
        n, num_classes=classes, feature_dim=d0, avg_degree=6.0, seed=seed
    )
    return Dataset(
        name=f"cacheprop-{seed}",
        adjacency=adj,
        features=x,
        labels=y,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=classes,
    )


def _train(ds, model, seed, epochs, *, staleness=None, budget=None,
           interleave=None, fault_injector=None):
    cfg = TrainerConfig(
        first_layer_skip=False,
        schedule="1d",
        seed=seed,
        cache_staleness_epochs=staleness,
        cache_budget_bytes=budget,
        fault_injector=fault_injector,
    )
    trainer = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=4, config=cfg)
    for epoch in range(epochs):
        trainer.train_epoch()
        if interleave is not None:
            interleave(trainer, epoch)
    return trainer.get_weights()


@settings(max_examples=10, deadline=None)
@given(
    st.integers(40, 100),  # vertices
    st.integers(2, 3),  # classes
    st.integers(4, 10),  # feature dim
    st.sampled_from([None, 256, 10**9]),  # byte budget
    st.integers(2, 4),  # epochs
    st.integers(0, 2**31 - 1),
)
def test_staleness_zero_is_bitwise_transparent(
    n, classes, d0, budget, epochs, seed
):
    ds = _make_dataset(n, classes, d0, seed)
    model = GCNModelSpec.build(d0, 8, classes, 2)
    base = _train(ds, model, seed, epochs)
    cached = _train(ds, model, seed, epochs, staleness=0, budget=budget)
    for a, b in zip(base, cached):
        assert np.array_equal(a, b)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_transparent_under_random_evict_clear_interleavings(seed, evict_seed):
    """Evicting or clearing entries between epochs only changes *plans*
    (what is intercepted next epoch), never the training values."""
    ds = _make_dataset(80, 3, 8, seed)
    model = GCNModelSpec.build(8, 8, 3, 2)
    rng = np.random.default_rng(evict_seed)

    def interleave(trainer, epoch):
        cache = trainer.training_cache
        assert cache is not None
        if rng.random() < 0.3:
            cache.clear()
            return
        for key in cache.entry_keys():
            if rng.random() < 0.5:
                assert cache.evict(*key)

    base = _train(ds, model, seed, 4)
    cached = _train(
        ds, model, seed, 4, staleness=0, budget=10**9, interleave=interleave
    )
    for a, b in zip(base, cached):
        assert np.array_equal(a, b)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_transparent_under_timing_faults(seed):
    """Stragglers and link degradations reshape the timeline, not the
    data — the cache must stay bitwise transparent when they fire."""
    ds = _make_dataset(60, 2, 6, seed)
    model = GCNModelSpec.build(6, 8, 2, 2)

    def injector():
        plan = FaultPlan(
            stragglers=(
                StragglerSlowdown(rank=1, factor=3.0, start=0.0, end=1e9),
            ),
            link_degradations=(
                LinkDegradation(factor=0.25, start=0.0, end=1e9),
            ),
        )
        return FaultInjector(plan)

    base = _train(ds, model, seed, 3, fault_injector=injector())
    cached = _train(
        ds, model, seed, 3, staleness=0, budget=10**9,
        fault_injector=injector(),
    )
    for a, b in zip(base, cached):
        assert np.array_equal(a, b)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_serve_epochs_never_send_more_than_full(staleness, epochs, seed):
    """For ANY staleness, an intercepted broadcast sends at most the
    full tile, hit-rate stays in [0, 1], and the counters reconcile."""
    ds = _make_dataset(80, 3, 8, seed)
    model = GCNModelSpec.build(8, 8, 3, 2)
    cfg = TrainerConfig(
        first_layer_skip=False,
        schedule="1d",
        seed=seed,
        cache_staleness_epochs=staleness,
        cache_budget_bytes=10**9,
    )
    trainer = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=4, config=cfg)
    cache = trainer.training_cache
    assert cache is not None
    for _ in range(epochs):
        trainer.train_epoch()
        ep = cache.epoch
        assert 0 <= ep.bytes_sent <= ep.bytes_full
        assert 0.0 <= ep.hit_rate <= 1.0
        assert ep.bytes_saved == ep.bytes_full - ep.bytes_sent
    total = cache.total
    assert total.intercepts > 0
    assert total.bytes_saved > 0  # serve epochs happened (staleness >= 1)
